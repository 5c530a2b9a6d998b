import hashlib
import itertools
import math
import re

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from dieres import specfun
from dieres.specfun import (
    angles_to_unit,
    bessel_zero,
    harmonic_table,
    radial_pair,
    radial_table,
    riccati_H,
    riccati_J,
    small_arg_leading,
    solid_harmonic_gradient_deg1,
    sph_bessel_j,
    sph_bessel_jp,
    sph_bessel_y,
    sph_bessel_yp,
    sph_hankel1,
    sph_harmonic,
    vsh_UV,
    vsh_table,
)

mpmath.mp.dps = 40

# sqrt(pi/2) / sqrt(z), not sqrt(pi/(2z)), in the oracles: it keeps the principal
# branches of z^(-1/2) and z^(n+1/2) paired on the negative real axis
NEGATIVE_AXIS = [(n, z) for n in (0, 1, 4) for z in (-0.3, -1.0, -2.5, -12.0)]


def mp_jn(n, z):
    z = mpmath.mpc(z)
    v = mpmath.sqrt(mpmath.pi / 2) / mpmath.sqrt(z) * mpmath.besselj(n + mpmath.mpf(1) / 2, z)
    return complex(v)


def mp_yn(n, z):
    z = mpmath.mpc(z)
    v = mpmath.sqrt(mpmath.pi / 2) / mpmath.sqrt(z) * mpmath.bessely(n + mpmath.mpf(1) / 2, z)
    return complex(v)


# --- spherical Bessel -------------------------------------------------------

def test_j_closed_form_values():
    assert abs(sph_bessel_j(0, math.pi)) < 1e-14
    assert_allclose(sph_bessel_j(1, math.pi), 1 / math.pi, rtol=1e-13)
    # closed-form arithmetic oracle: j_1(2) = sin2/4 - cos2/2
    expect = math.sin(2.0) / 4 - math.cos(2.0) / 2
    assert_allclose(sph_bessel_j(1, 2.0), expect, rtol=1e-13)
    assert sph_bessel_j(0, 0.0) == 1.0
    assert sph_bessel_j(3, 0.0) == 0.0


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 15, 30])
@pytest.mark.parametrize("z", [0.05, 0.7, 2.0, 9.5, 50.0, 1 + 1j, 3 - 2j, 0.3 + 0.02j, 20 + 5j])
def test_j_against_mpmath(n, z):
    assert_allclose(sph_bessel_j(n, z), mp_jn(n, z), rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
@pytest.mark.parametrize("z", [0.4, 3.0, 17.0, 2 + 1j, 7 - 3j])
def test_y_and_h_against_mpmath(n, z):
    assert_allclose(sph_bessel_y(n, z), mp_yn(n, z), rtol=1e-11)
    assert_allclose(sph_hankel1(n, z), mp_jn(n, z) + 1j * mp_yn(n, z), rtol=1e-11)


@pytest.mark.parametrize("n, z", NEGATIVE_AXIS)
def test_j_y_and_h_on_the_negative_axis_against_mpmath(n, z):
    # f_n(-x) = (-1)^n f_n(x) for j and y
    assert_allclose(sph_bessel_j(n, z), mp_jn(n, z), rtol=1e-12)
    assert_allclose(sph_bessel_y(n, z), mp_yn(n, z), rtol=1e-11)
    assert_allclose(sph_hankel1(n, z), mp_jn(n, z) + 1j * mp_yn(n, z), rtol=1e-11)
    assert_allclose(mp_jn(n, z), (-1) ** n * mp_jn(n, -z), rtol=1e-15)


def _complex_grid(seed, count):
    """Seeded (n, z) with 3 <= n <= 64, |z| <= 80 and |Im z| <= 60."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        n = int(rng.integers(3, 65))
        z = 80 * math.sqrt(rng.random()) * complex(np.exp(2j * math.pi * rng.random()))
        if abs(z.imag) <= 60:
            points.append((n, complex(round(z.real, 2), round(z.imag, 2))))
    return points


# off the real axis upward recurrence loses j_n even where |z| >= n: by 8e-5
# and 8e-9 relative at the first two points
@pytest.mark.parametrize("n, z", [(40, 30.93 - 27.36j), (20, 8.19 - 18.34j)] + _complex_grid(7, 100))
def test_j_complex_plane_against_mpmath(n, z):
    assert_allclose(sph_bessel_j(n, z), mp_jn(n, z), rtol=1e-12)


def _series_grid(seed, count):
    """Seeded (top, z) with |z| <= 1 and 1 <= top <= MAX_ORDER, then points where
    z^top / (2 top + 1)!! underflows (|z| <= 1e-7 at top >= 40), z = 0, and |z| = 1."""
    rng = np.random.default_rng(seed)
    points = [(int(rng.integers(1, specfun.MAX_ORDER + 1)),
               math.sqrt(rng.random()) * complex(np.exp(2j * math.pi * rng.random()))) for _ in range(count)]
    points += [(int(rng.integers(40, specfun.MAX_ORDER + 1)),
                10 ** rng.uniform(-12, -7) * complex(np.exp(2j * math.pi * rng.random()))) for _ in range(count // 4)]
    return points + [(64, 0j), (1, 0j), (64, 1 + 0j), (64, -1 + 0j), (30, 1j), (64, -0.6 - 0.8j)]


def _mp_j_rows(top, z):
    """j_0..j_top at z from mpmath; sqrt(pi/2) / sqrt(z) keeps the principal
    branches of z^(-1/2) and z^(n+1/2) paired on the negative real axis."""
    if z == 0:
        return np.array([1.0] + [0.0] * top)
    z = mpmath.mpc(z)
    scale = mpmath.sqrt(mpmath.pi / 2) / mpmath.sqrt(z)
    return np.array([complex(scale * mpmath.besselj(n + mpmath.mpf(1) / 2, z)) for n in range(top + 1)])


# the series pass (|z| <= 1) sums the series at the top two orders and runs the
# downward recurrence below them; every row of the table is checked, in the
# scalar pass and in an array whose other element takes another pass (Miller
# from top 3 on)
@pytest.mark.parametrize("top, z", _series_grid(19, 24))
def test_series_rows_against_mpmath(top, z):
    ref = _mp_j_rows(top, z)
    scalar = radial_table(top, z)[0]
    array = radial_table(top, np.array([z, 2.5 + 0.5j]))[0][:, 0]
    for rows in (scalar, array):
        # rows below the double range (z^n underflows) within a few subnormal steps
        assert np.all(np.abs(rows - ref) <= 1e-14 * np.abs(ref) + 1e-320)


def _mp_radial(kind, n, z):
    # h = j + iy cancels by e^{2 Im z} in the upper half plane: carry the extra digits
    with mpmath.workdps(mpmath.mp.dps + int(abs(complex(z).imag))):
        z = mpmath.mpc(z)
        nu = n + mpmath.mpf(1) / 2
        j = mpmath.besselj(nu, z)
        y = mpmath.bessely(nu, z)
        return +(mpmath.sqrt(mpmath.pi / 2) / mpmath.sqrt(z) * {"j": j, "y": y, "h": j + 1j * y}[kind])


@pytest.mark.parametrize("kind, n, z", [
    (kind, n, z)
    for kind in ("j", "y", "h")
    for n in (0, 1, 4, 30)
    for z in (0.6, 3.0 - 0.2j, 12 + 9j, 12 - 9j, 45.0)
] + [(kind, n, z) for kind in ("j", "y", "h") for n, z in NEGATIVE_AXIS])
def test_radial_pair_against_mpmath(kind, n, z):
    f, big = radial_pair(n, z, kind)
    riccati = z * _mp_radial(kind, n - 1, z) - n * _mp_radial(kind, n, z)
    assert_allclose(f, complex(_mp_radial(kind, n, z)), rtol=1e-12)
    assert_allclose(big, complex(riccati), rtol=1e-11)


# far off the real axis upward recurrence of y (and of h below the axis)
# picks up the other Hankel solution, by up to 7.6e8 relative at h_53(1.93-29.64i)
@pytest.mark.parametrize("kind", ["y", "h"])
@pytest.mark.parametrize("n, z", [(40, 5 + 40j), (40, 5 - 40j), (53, 1.93 - 29.64j), (30, 12 + 9j)]
                         + _complex_grid(7, 100))
def test_y_and_h_complex_plane_against_mpmath(kind, n, z):
    f, big = radial_pair(n, z, kind)
    riccati = z * _mp_radial(kind, n - 1, z) - n * _mp_radial(kind, n, z)
    assert_allclose(f, complex(_mp_radial(kind, n, z)), rtol=1e-12)
    assert_allclose(big, complex(riccati), rtol=1e-12)


def _far_off_axis_grid(seed, count):
    """Seeded (n, z) with n <= 64 and 100 <= |Im z| <= 699 on both sides of
    the axis, |Re z| up to about 10 |Im z| (past that j runs upward)."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        im = rng.uniform(100, 699) * rng.choice([-1, 1])
        points.append((int(rng.integers(0, 65)), complex(rng.uniform(-10, 10) * abs(im) * rng.random() ** 2, im)))
    return points


# the Miller pass of j far off the axis, where its iterates barely grow: at
# the first three points one normalizing factor j_0 / f_0 overflows (inf or
# nan for j, a false OverflowError for y and h, reflected from j); values
# below the normal double range (h above the axis) are checked to 1e-300
@pytest.mark.parametrize("kind", ["j", "y", "h"])
def test_far_off_axis_against_mpmath(kind):
    points = [(12, 1 + 230j), (20, 3 + 300j), (20, 3 - 300j)] + _far_off_axis_grid(5, 12)
    zs = np.array([z for _, z in points])
    table = radial_table(64, zs, kind)[0]
    for i, (n, z) in enumerate(points):
        expect = complex(_mp_radial(kind, n, z))
        assert_allclose([radial_pair(n, z, kind)[0], table[n, i]], [expect, expect], rtol=1e-14, atol=1e-300)


def _off_axis_bands(seed, count):
    """Seeded (n, z), n <= 64, in the two bands that join the regions above:
    80 <= |Re z| <= 1e4 with |Im z| <= 100 (far along the axis), and |z| <= 80
    with 60 < |Im z| < 100 (off the axis inside the disc), the corners of each
    band included."""
    rng = np.random.default_rng(seed)
    along = [(int(rng.integers(0, 65)), complex(rng.choice([-1, 1]) * 10 ** rng.uniform(math.log10(80), 4),
                                                  rng.uniform(-100, 100))) for _ in range(count)]
    inside = []
    for _ in range(count):
        im = rng.choice([-1, 1]) * rng.uniform(60.01, 80)
        inside.append((int(rng.integers(0, 65)), complex(rng.uniform(-1, 1) * math.sqrt(80 ** 2 - im ** 2), im)))
    along += [(64, 80 + 100j), (0, -80 - 100j), (64, 1e4 + 100j), (64, -1e4 - 100j), (0, 1e4 + 0j)]
    inside += [(64, 60.01j), (64, -60.01j), (0, 79.99j), (64, 48 - 63.99j)]
    return {"along": along, "inside": inside}


# each band in the scalar pass and as elements of one array that also holds
# points of the other passes, so the masks split
@pytest.mark.parametrize("band", ["along", "inside"])
@pytest.mark.parametrize("kind", ["j", "y", "h"])
def test_off_axis_bands_against_mpmath(kind, band):
    points = _off_axis_bands(23, 10)[band]
    zs = np.array([z for _, z in points] + [0.4 + 0.3j, 90 + 0.5j, 6 - 2j])
    if kind == "j":
        assert {"series" if specfun._series_j(z) else "upward" if specfun._upward_j(64, z) else "Miller"
                for z in zs} == {"series", "upward", "Miller"}
    else:
        assert {bool(specfun._off_axis(z, kind)) for z in zs} == {True, False}
    table = radial_table(64, zs, kind)[0]
    for i, (n, z) in enumerate(points):
        expect = complex(_mp_radial(kind, n, z))
        assert_allclose([radial_pair(n, z, kind)[0], table[n, i]], [expect, expect], rtol=1e-14)


def test_miller_mixed_array_against_mpmath():
    # j_10 at 1.5 next to 5000 + 600i: a Miller pass started at the larger
    # element's order would grow the small element's iterates for thousands of
    # steps; each element starts at its own order
    mixed = np.array([1.5, 5000 + 600j])
    got = sph_bessel_j(10, mixed)
    expect = [complex(_mp_radial("j", 10, v)) for v in mixed]
    assert_allclose([*got, *(sph_bessel_j(10, v) for v in mixed)], expect * 2, rtol=1e-14)


def _mixed_passes(seed, n, count):
    """Seeded arguments, count per pass of j at top n: |z| <= 1 (series), near
    the real axis past the order (upward) and over the rest of the accepted
    region up to |Re z| = 7000 and |Im z| = 700 (mostly Miller), then points
    on the axes, where rows have parts that are zeros of either sign."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        re = rng.choice([-1, 1]) * (n + 1 + 50 * rng.random())
        points += [
            (0.05 + 0.95 * rng.random()) * complex(np.exp(2j * math.pi * rng.random())),
            complex(re, rng.uniform(-1, 1) * min(0.1 * abs(re), 2)),
            complex(rng.uniform(-1, 1) * 7000 * rng.random() ** 3, rng.uniform(-1, 1) * 700 * rng.random() ** 2),
        ]
    return np.array(points + [4.2, -3.7, complex(2.5, -0.0), 2.5j, -9.5j, complex(-0.0, 40), -30.0])


# each element of an array that mixes the passes has the rows of its own
# one-element pass, bit for bit (signs of zeros too): no element's pass
# depends on its neighbours
@pytest.mark.parametrize("n", [5, 12, 64])
@pytest.mark.parametrize("kind", ["j", "y", "h"])
def test_array_elements_are_their_one_element_passes(kind, n):
    zs = _mixed_passes(29 + n, n, 20)
    assert {"series" if specfun._series_j(z) else "upward" if specfun._upward_j(n, z) else "Miller"
            for z in zs} == {"series", "upward", "Miller"}
    table, riccati_table = radial_table(n, zs, kind)
    for i in range(len(zs)):
        rows, riccati = radial_table(n, zs[i:i + 1], kind)
        assert table[:, i:i + 1].tobytes() == rows.tobytes()
        assert riccati_table[:, i:i + 1].tobytes() == riccati.tobytes()


# the corners of the accepted region that j's Miller pass borders: |Re z| up
# to N + 10 |Im z| at |Im z| = 700, the imaginary axis and |z| just past 1,
# each alone and as an element of one array
@pytest.mark.parametrize("top", [1, 12, 64])
def test_miller_region_corners_against_mpmath(top):
    zs = np.array([7064 + 700j, 7064 - 700j, -7064 + 700j, 7043 + 700j, 700j, 1.001, 1.001j])
    table = radial_table(top, zs)[0]
    for n in (top - 1, top):
        for i, z in enumerate(zs):
            expect = complex(_mp_radial("j", n, z))
            assert_allclose([radial_table(top, complex(z))[0][n], table[n, i]], [expect, expect], rtol=1e-14)


def test_radial_pair_views_and_shapes():
    z = np.array([[0.4, 2.5 - 0.3j], [17.0, 6 + 8j]])
    for kind, value, riccati in (("j", sph_bessel_j, riccati_J), ("h", sph_hankel1, riccati_H)):
        f, big = radial_pair(5, z, kind)
        assert f.shape == big.shape == z.shape
        assert np.array_equal(f, value(5, z))
        assert np.array_equal(big, riccati(5, z))
        table, riccati_table = radial_table(5, z, kind)
        assert table.shape == riccati_table.shape == (6,) + z.shape
        assert np.array_equal(table[5], f) and np.array_equal(riccati_table[5], big)
        assert np.array_equal(riccati_table[0], radial_pair(0, z, kind)[1])
        # the elements take three different passes, and the 2 x 2 array runs
        # them unflattened: the same bits as its flattened copy, reshaped
        for n in (0, 1, 5):
            for grid, flat in zip(radial_pair(n, z, kind) + radial_table(n, z, kind),
                                  radial_pair(n, z.ravel(), kind) + radial_table(n, z.ravel(), kind)):
                assert np.array_equal(grid, flat.reshape(grid.shape))
    assert radial_table(3, 2.0)[0].shape == (4,)
    with pytest.raises(ValueError):
        radial_pair(2, 1.0, "k")


def _parity_grid(seed, count):
    """Seeded (n, z), n <= 64, four per draw: |z| <= 1 (series for j), near the
    real axis past the order (upward for j), inside the order (Miller for j)
    and |Im z| > 2 (Miller for j, the reflection for y and h)."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        n = int(rng.integers(0, 65))
        phase = complex(np.exp(2j * math.pi * rng.random()))
        re = (n + 1 + 20 * rng.random()) * rng.choice([-1, 1])
        points += [
            (n, rng.random() * phase),
            (n, complex(re, rng.uniform(-1, 1) * min(0.1 * (n + 1), 2))),
            (n, (1 + n * rng.random()) * phase),
            (n, complex(80 * rng.uniform(-1, 1), rng.choice([-1, 1]) * (2.01 + 58 * rng.random()))),
        ]
    return points


# numpy's array complex product fuses multiply-adds and its quotient multiplies
# by a reciprocal, where Python complex rounds each step, and the recurrences
# carry that difference: a quarter of these points differ by more than 1e-15,
# the worst by 5e-15 here and by 2e-14 of f_n on 16000 random points per kind
@pytest.mark.parametrize("kind", ["j", "y", "h"])
def test_scalar_and_array_elements_agree(kind):
    grid = _parity_grid(11, 40)
    for n in sorted({n for n, _ in grid}):
        zs = np.array([z for m, z in grid if m == n])
        f_arr, big_arr = radial_pair(n, zs, kind)
        table, riccati_table = radial_table(n, zs, kind)
        assert np.array_equal(table[n], f_arr) and np.array_equal(riccati_table[n], big_arr)
        for z, f, big in zip(zs, f_arr, big_arr):
            pairs = [radial_pair(n, arg, kind) for arg in (complex(z), z, np.array(z))]
            assert all(type(v) is complex for pair in pairs for v in pair)
            assert pairs[0] == pairs[1] == pairs[2]
            f_s, big_s = pairs[0]
            scalar_table = radial_table(n, complex(z), kind)
            assert (scalar_table[0][n], scalar_table[1][n]) == (f_s, big_s)
            assert abs(f_s - f) <= 1e-13 * abs(f)
            # F_n = z f_{n-1} - n f_n
            cancelling = abs(z * scalar_table[0][n - 1]) + n * abs(f) if n else abs(big)
            assert abs(big_s - big) <= 1e-13 * cancelling


def _spellings(z):
    """The 0-d spellings of z: complex, np.complex128, a 0-d array, and for a
    real z float, np.float64 and, when integral, int."""
    out = [complex(z), np.complex128(z), np.array(z)]
    if z.imag == 0:
        out += [z.real, np.float64(z.real)] + ([int(z.real)] if z.real.is_integer() else [])
    return out


# (n, z, kind) on each pass: the series (|z| <= 1), upward j (low order, and
# past the order near the axis), Miller, upward y and h, and y and h reflected
# at |Im z| > 2 on both sides of the axis
@pytest.mark.parametrize("n, z, kind", [
    (0, 0.5, "j"), (5, 0.9j, "j"), (12, 1.0, "j"), (2, 3.0, "j"), (8, 20 - 0.4j, "j"),
    (8, 5.0, "j"), (20, 3 + 2.5j, "j"), (3, 7.0, "y"), (5, 2 - 1j, "h"), (4, 3.0, "h"),
    (3, 1 + 3j, "y"), (6, -4 - 2.5j, "y"), (2, 0.5 - 3j, "h"), (7, 2 + 4j, "h"),
])
def test_zero_d_spellings_agree(n, z, kind):
    pairs = [radial_pair(n, arg, kind) for arg in _spellings(complex(z))]
    assert all(type(v) is complex for pair in pairs for v in pair)
    assert all(pair == pairs[0] for pair in pairs)
    (f,), (big,) = radial_pair(n, np.array([z]), kind)
    assert abs(pairs[0][0] - f) <= 1e-15 * abs(f)
    # F_n = z f_{n-1} - n f_n, relative to the two products that cancel in it
    below = radial_table(n, complex(z), kind)[0][n - 1] if n else 0
    assert abs(pairs[0][1] - big) <= 1e-15 * max(abs(z * below) + n * abs(f), abs(big))


@pytest.mark.parametrize("n, z, kind, error", [
    (-1, 0.5, "j", ValueError),
    (65, 0.5, "j", ValueError),
    (3, 2 + 800j, "j", OverflowError),
    (3, 2 - 701j, "h", OverflowError),
    (3, 0.5, "k", ValueError),
    (3, 0.0, "y", ZeroDivisionError),
    (0, 0.0, "h", ZeroDivisionError),
    (2, math.nan, "j", ValueError),
    (1, math.nan, "h", ValueError),
    (3, math.inf, "h", ValueError),
    (1, math.inf, "j", ValueError),
    (1, -math.inf, "y", ValueError),
    (2, complex(0.5, math.inf), "j", ValueError),
    (2, complex(math.nan, 1.0), "y", ValueError),
])
def test_scalar_and_array_errors(n, z, kind, error):
    # a non-finite argument is named, also the one bad element of an array
    match = None if np.isfinite(z) else re.escape(f"argument z = {complex(z)} is not finite")
    for arg in (z, np.complex128(z), np.array(z), np.array([1.5, z])):
        for call in (radial_pair, radial_table):
            with pytest.raises(error, match=match):
                call(n, arg, kind)


@pytest.mark.parametrize("call, message", [
    (lambda: small_arg_leading(1, 0.1, "q"), "unknown kind 'q'"),
    (lambda: small_arg_leading(-1, 0.1, "j"), "order n must be >= 0"),
    (lambda: small_arg_leading(1, math.nan, "j"), r"t = \(nan\+0j\) is not finite"),
    (lambda: small_arg_leading(2, np.array([0.1, complex(0.2, math.inf)]), "H"), r"t = \(0\.2\+infj\) is not finite"),
    (lambda: angles_to_unit(math.nan, 0.3), r"theta = \(nan\+0j\) is not finite"),
    (lambda: angles_to_unit([0.1, 0.2], [0.3, -math.inf]), r"phi = \(-inf\+0j\) is not finite"),
    (lambda: bessel_zero(-1, 1), "need n >= 0 and s >= 1"),
    (lambda: bessel_zero(0, 0), "need n >= 0 and s >= 1"),
    (lambda: vsh_UV(0, 0, [0.0, 0.0, 1.0]), "vector harmonics need n >= 1"),
    (lambda: vsh_table(0, [0.0, 0.0, 1.0]), "need n_max >= 1"),
    (lambda: solid_harmonic_gradient_deg1(2), r"degree-1 gradient needs m in \{-1, 0, 1\}"),
    (lambda: sph_harmonic(1, 0, np.ones((4, 2))), "directions must have a trailing axis of length 3"),
])
def test_out_of_domain_calls_raise(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("kind", ["y", "h"])
def test_overflow_at_small_argument(kind):
    # y_64(1e-4) is about 1e367: past the double range, not a nan
    for arg in (1e-4, 1e-4j, np.array([1e-4, 1.0])):
        for call in (radial_pair, radial_table):
            with pytest.raises(OverflowError):
                call(64, arg, kind)
    with pytest.raises(OverflowError):
        (sph_bessel_y if kind == "y" else sph_hankel1)(64, 1e-4)
    assert np.all(np.isfinite(radial_table(12, np.array([1e-4, 1.0]), kind)[0]))


def test_h0_closed_form():
    # h_0^(1)(z) = -i e^{iz}/z, so h_0(i) = -e^{-1}
    assert_allclose(sph_hankel1(0, 1j), -math.exp(-1), rtol=1e-14)


def test_h1_small_argument_pole():
    # z^2 h_1^(1)(z) -> -i as z -> 0 along the reals
    for z in [1e-3, 1e-4, 1e-5]:
        assert_allclose(z * z * sph_hankel1(1, z), -1j, rtol=1e-5, atol=1e-8)


def test_h2_two_paths_agree():
    # upward recurrence against the closed trigonometric form
    z = 3.0 + 0.5j
    e = np.exp(1j * z)
    closed = e * (-1j * 3 / z ** 3 - 3 / z ** 2 + 1j / z)
    assert_allclose(sph_hankel1(2, z), closed, rtol=1e-12)


def test_hankel_pole_at_zero():
    with pytest.raises(ZeroDivisionError):
        sph_hankel1(0, 0.0)


def test_overflow_signal():
    with pytest.raises(OverflowError):
        sph_bessel_j(0, 1000j)


def test_vectorized_matches_scalar():
    z = np.array([[0.3, 2.5], [40.0, 5 - 1j]])
    out = sph_bessel_j(4, z)
    assert out.shape == z.shape
    for idx in np.ndindex(z.shape):
        assert_allclose(out[idx], sph_bessel_j(4, complex(z[idx])), rtol=1e-13)


# --- Riccati combinations ---------------------------------------------------

def test_riccati_closed_forms():
    assert_allclose(riccati_J(0, math.pi), -1.0, rtol=1e-13)
    assert_allclose(riccati_H(0, math.pi), -1.0, rtol=1e-13)
    # J_1(t) = t j_0(t) - j_1(t); at pi this is -j_1(pi) = -1/pi
    assert_allclose(riccati_J(1, math.pi), -1 / math.pi, rtol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 6])
@pytest.mark.parametrize("z", [0.8, 4.0, 2 - 1j])
def test_riccati_equals_derivative_form(n, z):
    assert_allclose(riccati_J(n, z), sph_bessel_j(n, z) + z * sph_bessel_jp(n, z), rtol=1e-12)
    h = sph_hankel1(n, z)
    hp = sph_bessel_jp(n, z) + 1j * sph_bessel_yp(n, z)
    assert_allclose(riccati_H(n, z), h + z * hp, rtol=1e-11)


@pytest.mark.parametrize("n", [0, 1, 2, 6])
def test_derivative_of_an_array_matches_the_scalar_path(n):
    zs = np.array([0.0, 0.5, 3 - 1j, 2 + 4j, 20 - 2j])
    jp = sph_bessel_jp(n, zs)
    assert_allclose(jp, [sph_bessel_jp(n, z) for z in zs], rtol=1e-14)
    assert jp[0] == (1 / 3 if n == 1 else 0)
    assert_allclose(sph_bessel_yp(n, zs[1:]), [sph_bessel_yp(n, z) for z in zs[1:]], rtol=1e-14)


# --- invariants: Wronskian, recurrence --------------------------------------

@pytest.mark.parametrize("z", [0.5, 2.0, 7 + 3j])
@pytest.mark.parametrize("n", range(11))
def test_wronskian(n, z):
    w = sph_bessel_j(n, z) * sph_bessel_yp(n, z) - sph_bessel_jp(n, z) * sph_bessel_y(n, z)
    assert_allclose(w, 1 / np.asarray(z, dtype=complex) ** 2, rtol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_recurrence_grid(n):
    for k in np.linspace(0.3, 24.0, 40):
        lhs = sph_bessel_jp(n, k) - sph_bessel_j(n - 1, k) + (n + 1) / k * sph_bessel_j(n, k)
        scale = max(abs(sph_bessel_j(n, k)), abs(sph_bessel_j(n - 1, k)), 1e-30)
        assert abs(lhs) <= 1e-12 * max(scale, 1.0)


# --- small-argument expansions ----------------------------------------------

def test_small_arg_leading_literal_values():
    assert_allclose(small_arg_leading(1, 0.1, "j"), (0.1 / 3) * (1 - 0.01 / 10), rtol=1e-14)
    # degenerate n = 0 Riccati-Hankel case evaluates the formula literally:
    # -i (1/t) (0 - ((0-2)/(2(0-1))) t^2) = +i t
    assert_allclose(small_arg_leading(0, 0.1, "H"), 0.1j, rtol=1e-14)


def _fit_slope(ts, errs):
    mask = np.asarray(errs) > 1e-16
    return np.polyfit(np.log(np.asarray(ts)[mask]), np.log(np.asarray(errs)[mask]), 1)[0]


@pytest.mark.parametrize("kind,orders", [("j", range(6)), ("J", range(6)), ("h", range(2, 6)), ("H", range(2, 6))])
def test_small_argument_quartic_error(kind, orders):
    fn = {"j": sph_bessel_j, "h": sph_hankel1, "J": riccati_J, "H": riccati_H}[kind]
    ts = np.geomspace(1e-3, 1e-1, 9)
    for n in orders:
        errs = np.array([abs(fn(n, t) / small_arg_leading(n, t, kind) - 1) for t in ts])
        assert np.all(errs <= ts ** 4), (kind, n)
        meaningful = errs > 1e-13
        if np.count_nonzero(meaningful) >= 4:
            assert _fit_slope(ts[meaningful], errs[meaningful]) >= 3.7, (kind, n)


@pytest.mark.parametrize("kind", ["h", "H"])
def test_small_argument_hankel_n1_cross_term(kind):
    # the regular Bessel part enters the Hankel ratio at relative order
    # t^(2n+1), so n = 1 carries a cubic (not quartic) error
    fn = sph_hankel1 if kind == "h" else riccati_H
    ts = np.geomspace(1e-3, 1e-1, 9)
    errs = [abs(fn(1, t) / small_arg_leading(1, t, kind) - 1) for t in ts]
    slope = _fit_slope(ts, errs)
    assert 2.8 <= slope <= 3.2


def test_hankel_ratio_slope_example():
    ts = np.geomspace(3e-3, 3e-1, 9)
    errs = [abs(sph_hankel1(2, t) / small_arg_leading(2, t, "h") - 1) for t in ts]
    assert _fit_slope(ts, errs) >= 3.7


# --- Bessel zeros ------------------------------------------------------------

def test_bessel_zero_takes_integer_indices_only():
    assert bessel_zero(np.int64(2), np.int64(3)) == bessel_zero(2, 3)
    for n, s in ((0, 1.5), (1.5, 1), (2.0, 1)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            bessel_zero(n, s)


def test_zero_row0_is_multiples_of_pi():
    for s in range(1, 6):
        assert_allclose(bessel_zero(0, s), s * math.pi, atol=1e-12, rtol=0)


def test_zero_11_against_bisection_oracle():
    # independent oracle: j_1(x) = 0 iff tan x = x; bisect g(x) = sin x - x cos x
    lo, hi = 3.5, 6.0
    g = lambda x: math.sin(x) - x * math.cos(x)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(lo) * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)
    assert_allclose(oracle, 4.493409457909064, atol=1e-12, rtol=0)
    assert_allclose(bessel_zero(1, 1), 4.493409457909064, atol=1e-10, rtol=0)


def test_zero_interlacing_and_residual():
    for n in range(6):
        for s in range(1, 6):
            k = bessel_zero(n, s)
            assert abs(sph_bessel_j(n, k)) <= 1e-12
            assert bessel_zero(n, s) < bessel_zero(n + 1, s) < bessel_zero(n, s + 1)
            eps = 1e-6
            assert sph_bessel_j(n, k - eps).real * sph_bessel_j(n, k + eps).real < 0


def test_refine_zero_rejects_a_bracket_that_does_not_straddle(monkeypatch):
    monkeypatch.setattr(specfun, "_jn_real", lambda n, x: 1.0 + x)
    with pytest.raises(RuntimeError, match="bracket does not straddle a zero of j_n"):
        specfun._refine_zero(1, 3.0, 4.0)


def test_refine_zero_stops_on_an_exact_zero_at_a_midpoint(monkeypatch):
    # f(x) = x - 3.5 is exactly 0 at the first midpoint of [3, 4], and the Newton polish leaves it there;
    # bisecting on past it would close in on 4
    monkeypatch.setattr(specfun, "_jn_real", lambda n, x: x - 3.5)
    assert specfun._refine_zero(1, 3.0, 4.0) == 3.5


def test_zero_against_scipy_jn_zeros():
    for n in range(4):
        k = bessel_zero(n, 3)
        assert abs(special.spherical_jn(n, k)) < 1e-12


# --- spherical harmonics -----------------------------------------------------

def test_angles_broadcast_to_the_product_grid():
    theta, phi = np.linspace(0.1, 3.0, 5), np.linspace(-1.0, 6.0, 7)
    grid = angles_to_unit(theta[:, None], phi[None, :])
    assert grid.shape == (5, 7, 3)
    assert np.array_equal(grid, [[angles_to_unit(t, p) for p in phi] for t in theta])
    assert np.array_equal(angles_to_unit(0.4, phi), [angles_to_unit(0.4, p) for p in phi])


def test_harmonic_constant():
    x = angles_to_unit(1.1, 2.2)
    assert_allclose(sph_harmonic(0, 0, x), 1 / math.sqrt(4 * math.pi), rtol=1e-14)


def test_harmonic_degree1_exact():
    e3 = np.array([0.0, 0.0, 1.0])
    assert_allclose(sph_harmonic(1, 0, e3), 0.5 * math.sqrt(3 / math.pi), rtol=1e-14)
    x = angles_to_unit(0.7, 1.3)
    c = 0.5 * math.sqrt(3 / (2 * math.pi))
    assert_allclose(sph_harmonic(1, -1, x), c * (x[0] - 1j * x[1]), rtol=1e-13)
    assert_allclose(sph_harmonic(1, 1, x), -c * (x[0] + 1j * x[1]), rtol=1e-13)
    assert_allclose(sph_harmonic(1, 0, x), 0.5 * math.sqrt(3 / math.pi) * x[2], rtol=1e-13)


@pytest.mark.parametrize("n,m", [(2, 1), (3, -2), (5, 4), (8, 0), (12, -7)])
def test_harmonic_against_scipy(n, m):
    theta, phi = 0.9, 2.4
    mine = sph_harmonic(n, m, angles_to_unit(theta, phi))
    if hasattr(special, "sph_harm_y"):
        ref = special.sph_harm_y(n, m, theta, phi)
    else:
        ref = special.sph_harm(m, n, phi, theta)
    assert_allclose(mine, complex(ref), rtol=1e-11)


def test_harmonic_rejects_bad_index():
    with pytest.raises(ValueError):
        sph_harmonic(2, 3, np.array([0.0, 0.0, 1.0]))


def test_harmonic_quadrature_norm(sphere_quad):
    # quadrature oracle: \int_S |Y_2^1|^2 = 1
    y = sph_harmonic(2, 1, sphere_quad.points)
    val = np.sum(sphere_quad.weights * np.abs(y) ** 2)
    assert_allclose(val, 1.0, atol=1e-10)


def test_harmonic_orthonormality(sphere_quad):
    pairs = [(1, 0), (1, 1), (2, -1), (3, 2)]
    for na, ma in pairs:
        for nb, mb in pairs:
            ya = sph_harmonic(na, ma, sphere_quad.points)
            yb = sph_harmonic(nb, mb, sphere_quad.points)
            val = np.sum(sphere_quad.weights * ya * np.conj(yb))
            expect = 1.0 if (na, ma) == (nb, mb) else 0.0
            assert_allclose(val, expect, atol=1e-10)


# --- one harmonic table behind sph_harmonic, vsh_UV and vsh_table -----------

_RANDOM = np.random.default_rng(20261018).normal(size=(24, 3))
_TABLE_DIRS = np.vstack([_RANDOM / np.linalg.norm(_RANDOM, axis=1)[:, None], [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])


@pytest.mark.parametrize("n", range(13))
def test_harmonic_views_read_one_table(n):
    table = harmonic_table(12, _TABLE_DIRS)
    vectors = vsh_table(12, _TABLE_DIRS)
    for m in range(-n, n + 1):
        k = n * (n + 1) + m
        assert np.array_equal(sph_harmonic(n, m, _TABLE_DIRS), table.y[k])
        # a single direction takes the same path as a batch
        assert [sph_harmonic(n, m, _TABLE_DIRS[i]) for i in (0, -2, -1)] == list(table.y[k][[0, -2, -1]])
        if n == 0:
            continue
        u, v = vsh_UV(n, m, _TABLE_DIRS)
        tu, tv = table.vectors(k)
        assert np.array_equal(u, tu) and np.array_equal(v, tv)
        assert np.array_equal(vectors[(n, m)][0], u) and np.array_equal(vectors[(n, m)][1], v)
        assert np.array_equal(vsh_UV(n, m, _TABLE_DIRS[-1])[0], u[-1])
        # V = x-hat cross U without a cross product: rounding-level difference, none at the poles
        cross = np.cross(_TABLE_DIRS, u)
        assert np.max(np.abs(v - cross)) <= 1e-15 * np.max(np.abs(u))
        assert np.array_equal(v[-2:], cross[-2:])


def test_harmonic_table_shapes_and_cap():
    x = _TABLE_DIRS[:6].reshape(2, 3, 3)
    table = harmonic_table(4, x)
    assert table.y.shape == table.d_theta.shape == table.d_phi.shape == (25, 2, 3)
    assert table.theta_hat.shape == table.phi_hat.shape == (2, 3, 3)
    assert list(table.degree) == [n for n in range(5) for _ in range(2 * n + 1)]
    assert np.array_equal(table.y, harmonic_table(4, x.reshape(6, 3)).y.reshape(25, 2, 3))
    assert np.all(table.d_theta[0] == 0) and np.all(table.d_phi[0] == 0)
    single = harmonic_table(4, x[0, 0])
    assert single.y.shape == (25,) and single.theta_hat.shape == (3,)
    with pytest.raises(ValueError):
        harmonic_table(65, x)
    with pytest.raises(ValueError):
        harmonic_table(-1, x)
    with pytest.raises(ValueError):
        harmonic_table(2, np.zeros(3))



@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_harmonic_table_rejects_non_finite_directions(bad):
    x = np.array([[0.0, 0.6, 0.8], [bad, 0.0, 1.0]])
    with pytest.raises(ValueError, match=r"direction \[.*\] is not finite"):
        harmonic_table(3, x)
    with pytest.raises(ValueError, match="not finite"):
        sph_harmonic(2, 1, x[1])


def test_legendre_rows_build_the_table():
    from dieres.specfun import _direction_frame, _legendre_rows

    x = np.concatenate([_TABLE_DIRS, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    table = harmonic_table(6, x)
    cos_t, sin_t, phi, _, _ = _direction_frame(x)
    sin_pow = np.stack([sin_t ** m for m in range(7)])
    phase = np.exp(1j * np.arange(7)[:, None] * phi)
    for n, q in enumerate(_legendre_rows(6, cos_t)):
        # Y_n^m = q_n^m sin^m e^{i m phi} for m >= 0, the rows the table holds
        assert q.shape == (n + 1, len(x)) and q.dtype == float
        assert np.array_equal(q * sin_pow[:n + 1] * phase[:n + 1], table.y[n * (n + 1):(n + 1) ** 2])
    assert n == 6


_PIN_RANDOM = np.random.default_rng(20261019).normal(size=(196, 3))
_PIN_DIRS = np.vstack([_PIN_RANDOM / np.linalg.norm(_PIN_RANDOM, axis=1)[:, None],
                       [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1e-12, 0.0, 1.0], [0.0, -1e-12, -1.0]]])


@pytest.mark.parametrize("n_max, digest", [
    (12, "d823434260732dc39e9c1739e1606a66cd20154432eaeefef75da26a2eb4b9d8"),
    (64, "ac844f3f5a3fb968d762fb65a16059fa450b86e1f40d40323e697f14eb2b8da8"),
])
def test_harmonic_table_bits_are_pinned(n_max, digest):
    # 196 seeded directions, both poles and sin(theta) = 1e-12 next to each
    table = harmonic_table(n_max, _PIN_DIRS)
    sha = hashlib.sha256()
    for part in (table.y, table.d_theta, table.d_phi):
        sha.update(np.ascontiguousarray(part).tobytes())
    assert sha.hexdigest() == digest


_ORACLE_RANDOM = np.random.default_rng(20261020).normal(size=(12, 3))
_ORACLE_DIRS = np.vstack([_ORACLE_RANDOM / np.linalg.norm(_ORACLE_RANDOM, axis=1)[:, None],
                          [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1e-6, 0.0, math.sqrt(1 - 1e-12)],
                           [0.0, -1e-6, -math.sqrt(1 - 1e-12)]]])


@pytest.mark.parametrize("n", [32, 48, 64])
def test_harmonic_table_to_order_64_against_mpmath(n):
    # 12 seeded directions, both poles and sin(theta) = 1e-6 next to each, to
    # 1e-12 of sup |Y_n^m| = sqrt((2n + 1) / 4 pi)
    table = harmonic_table(64, _ORACLE_DIRS)
    bound = 1e-12 * math.sqrt((2 * n + 1) / (4 * math.pi))
    for m in (0, 1, -1, n // 2, -n // 2, n, -n):
        for x, value in zip(_ORACLE_DIRS, table.y[n * (n + 1) + m]):
            theta, phi = mpmath.atan2(mpmath.hypot(x[0], x[1]), x[2]), mpmath.atan2(x[1], x[0])
            assert abs(value - complex(mpmath.spherharm(n, m, theta, phi))) <= bound


# --- vector spherical harmonics ----------------------------------------------

def test_vsh_axis_zero():
    u, v = vsh_UV(1, 0, np.array([0.0, 0.0, 1.0]))
    assert np.max(np.abs(u)) < 1e-14
    assert np.max(np.abs(v)) < 1e-14


def test_vsh_equator_hand_value():
    # hand evaluation at theta = pi/2, phi = 0
    u, v = vsh_UV(1, 0, np.array([1.0, 0.0, 0.0]))
    c = math.sqrt(3 / (8 * math.pi))
    assert_allclose(u, [0, 0, c], atol=1e-14)
    assert_allclose(v, [0, -c, 0], atol=1e-14)


def test_vsh_tangential(rng):
    for _ in range(10):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        for n, m in [(1, 1), (2, -1), (4, 3)]:
            u, v = vsh_UV(n, m, x)
            assert abs(np.dot(x, u)) < 1e-12
            assert abs(np.dot(x, v)) < 1e-12


def test_vsh_no_nan_at_poles():
    for n, m in [(1, 1), (2, -2), (3, 1), (5, 0)]:
        for pole in [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]:
            u, v = vsh_UV(n, m, pole)
            assert np.all(np.isfinite(u)) and np.all(np.isfinite(v))


def test_vsh_pole_limit_matches_nearby():
    # continuity check against evaluation slightly off the pole (limit along phi=0)
    for n, m in [(1, 1), (3, -1)]:
        u0, v0 = vsh_UV(n, m, np.array([0.0, 0.0, 1.0]))
        u1, v1 = vsh_UV(n, m, angles_to_unit(1e-7, 0.0))
        assert_allclose(u0, u1, atol=1e-6)
        assert_allclose(v0, v1, atol=1e-6)


def test_vsh_matches_gradient_finite_difference(rng):
    # U = grad_S Y/sqrt(n(n+1)): compare with a central difference of Y along
    # two tangent directions
    n, m = 3, 2
    x = rng.normal(size=3)
    x /= np.linalg.norm(x)
    u, _ = vsh_UV(n, m, x)
    t1 = np.cross(x, [0.3, -1.0, 0.7])
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(x, t1)
    h = 1e-6
    for t in (t1, t2):
        xp = x + h * t
        xm = x - h * t
        xp /= np.linalg.norm(xp)
        xm /= np.linalg.norm(xm)
        d = (sph_harmonic(n, m, xp) - sph_harmonic(n, m, xm)) / (2 * h)
        assert_allclose(math.sqrt(n * (n + 1)) * np.dot(u, t), d, rtol=1e-5, atol=1e-8)


def test_vsh_orthonormality(sphere_quad):
    pairs = [(1, 0), (1, 1), (2, 1), (3, -2)]
    pts = sphere_quad.points
    w = sphere_quad.weights
    basis = {pm: vsh_UV(pm[0], pm[1], pts) for pm in pairs}
    for pa in pairs:
        ua, va = basis[pa]
        for pb in pairs:
            ub, vb = basis[pb]
            expect = 1.0 if pa == pb else 0.0
            assert_allclose(np.sum(w * np.sum(ua * np.conj(ub), axis=-1)), expect, atol=1e-10)
            assert_allclose(np.sum(w * np.sum(va * np.conj(vb), axis=-1)), expect, atol=1e-10)
            assert_allclose(np.sum(w * np.sum(ua * np.conj(vb), axis=-1)), 0.0, atol=1e-10)


def test_unit_outer_product_identity(sphere_quad):
    xh = sphere_quad.points
    mat = np.einsum("p,pi,pj->ij", sphere_quad.weights, xh, xh)
    assert_allclose(mat, (4 * math.pi / 3) * np.eye(3), atol=1e-10)


def test_solid_harmonic_gradients():
    # finite-difference oracle on |x| Y_1^m
    for m in (-1, 0, 1):
        g = solid_harmonic_gradient_deg1(m)
        x0 = np.array([0.21, -0.4, 0.55])
        h = 1e-6
        fd = np.zeros(3, dtype=complex)
        for i in range(3):
            xp, xm = x0.copy(), x0.copy()
            xp[i] += h
            xm[i] -= h
            fp = np.linalg.norm(xp) * sph_harmonic(1, m, xp / np.linalg.norm(xp))
            fm = np.linalg.norm(xm) * sph_harmonic(1, m, xm / np.linalg.norm(xm))
            fd[i] = (fp - fm) / (2 * h)
        assert_allclose(g, fd, atol=1e-9)


def test_bessel_zero_table_concurrent_access():
    # the memoized zeros are shared; hammer them from several threads
    import threading

    from dieres.specfun import _zero

    _zero.cache_clear()
    results = {}

    def worker(tid):
        results[tid] = [bessel_zero(n, s) for n in range(6) for s in range(1, 6)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    baseline = results[0]
    assert all(results[i] == baseline for i in results)
    assert_allclose(baseline[0], math.pi, atol=1e-12)


def _assert_same_bits(got, want):
    """Every finite part of got has the bits of want's, and the NaN parts sit at the same places
    (CPython returns its own NaN for a NaN divisor, numpy's carries another sign)."""
    got, want = np.asarray(got).view(float), np.array(want, dtype=complex).view(float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


def test_complex_helpers_are_the_scalar_operators_bit_for_bit():
    # _product against Python's complex *, _quotient against / and with scaled against numpy's scalar
    # division, on parts over 200 decades (both of Smith's branches), signed zeros, inf and NaN, and int
    # and float operands taken as (x, 0.0) as CPython 3.10-3.13 take them.  CPython 3.14's mixed-operand
    # arithmetic (C99 Annex G: no conversion of the real operand) is not covered.  A zero divisor is
    # left out: Python raises there, and numpy's scalar division has a branch of its own.
    rng = np.random.default_rng(33)
    parts = rng.choice([-1.0, 1.0], size=(2, 2000, 2)) * 10.0 ** rng.uniform(-100, 100, size=(2, 2000, 2))
    special = [complex(*p) for p in itertools.product([0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan], repeat=2)]
    a = np.concatenate([parts[0].view(complex)[:, 0], np.repeat(special, len(special))])
    b = np.concatenate([parts[1].view(complex)[:, 0], np.tile(special, len(special))])
    wide = np.abs(b.real) >= np.abs(b.imag)
    assert wide.sum() > 1000 and (~wide).sum() > 1000
    with np.errstate(all="ignore"):
        _assert_same_bits(specfun._product(a, b), [x * y for x, y in zip(a.tolist(), b.tolist())])
        a, b = a[b != 0], b[b != 0]
        _assert_same_bits(specfun._quotient(a, b), [x / y for x, y in zip(a.tolist(), b.tolist())])
        _assert_same_bits(specfun._quotient(a, b, scaled=True),
                          [np.complex128.__truediv__(np.complex128(x), y) for x, y in zip(a.tolist(), b.tolist())])
        for x in (0, 1, -3, 0.0, -0.0, 2.5, 8 * math.pi ** 2 / 3, math.inf, math.nan):
            _assert_same_bits(specfun._product(x, b), [x * y for y in b.tolist()])
            _assert_same_bits(specfun._product(a, x), [y * x for y in a.tolist()])
            _assert_same_bits(specfun._quotient(x, b), [x / y for y in b.tolist()])
            if x != 0:  # a real divisor, as an array
                _assert_same_bits(specfun._quotient(a, np.full(len(a), x)), [y / x for y in a.tolist()])
                _assert_same_bits(specfun._quotient(a, np.full(len(a), x), scaled=True),
                                  [np.complex128.__truediv__(np.complex128(y), np.complex128(x)) for y in a.tolist()])
