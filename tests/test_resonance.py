import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dieres.fields import IncidentWave
from dieres.quasistatic import (
    averaged_cross_sections,
    blowup_coefficient,
    dipole_approximation,
    resonant_moments,
    scatter_fn_explicit,
    scatter_fn_general,
)
from dieres.resonance import (
    ContrastModel,
    MullerNoConvergence,
    RegimeError,
    find_resonance,
    first_order_correction,
    muller_root,
    quasi_static_prediction,
    resonance_function,
    sweep_resonance,
)
from dieres.specfun import riccati_J, sph_bessel_j

UNIT_MODEL = ContrastModel(1.0)
WAVE = IncidentWave([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], 3.3)


# --- Muller ------------------------------------------------------------------

def test_muller_cube_root_of_unity():
    root, res, _ = muller_root(lambda z: z ** 3 - 1, 0.8, 1.2, 1 + 0.1j)
    assert abs(root - 1) < 1e-12
    assert res <= 1e-12


def test_muller_finds_complex_root_from_real_function():
    root, res, _ = muller_root(lambda z: z * z + 1, 0.9j, 1.1j, 1j + 0.05)
    assert abs(root - 1j) < 1e-12


def test_muller_requires_distinct_points():
    with pytest.raises(ValueError):
        muller_root(lambda z: z, 1.0, 1.0, 2.0)


def test_muller_secant_step_on_a_flat_parabola():
    # a linear f has no curvature: one secant step lands on its root
    assert muller_root(lambda z: 2 * z - 3, 0.0, 1.0, 2.0) == (1.5, 0.0, 1)


def test_muller_stops_on_a_constant_function():
    with pytest.raises(MullerNoConvergence) as info:
        muller_root(lambda z: 1.0 + 0j, 0.0, 1.0, 2.0)
    assert (info.value.root, info.value.residual) == (0.0, 1.0)
    # the flat secant stops the first iteration, and the error reports that one, not max_iter
    assert info.value.iterations == 1 and str(info.value).startswith("no convergence after 1 iterations")


def test_muller_returns_a_best_iterate_within_tol_at_an_early_stop():
    # 2 is an exact root among the starts; the parabola through them has a zero denominator
    values = {0j: 4 + 0j, 1 + 0j: 1 + 0j, 2 + 0j: 0j}
    assert muller_root(lambda z: values.get(z, 1 + 0j), 0, 1, 2) == (2, 0.0, 1)
    # f == 0: the flat secant stops the first iteration at a start that already meets tol
    assert muller_root(lambda z: 0j, 1, 2, 3) == (1, 0.0, 1)


def test_muller_no_convergence_carries_iterate():
    with pytest.raises(MullerNoConvergence) as info:
        muller_root(lambda z: np.exp(z) + 3, 0.1, 0.2, 0.3, tol=1e-300, max_iter=5)
    assert info.value.root is not None
    assert info.value.iterations == 5


def test_muller_convergence_order():
    # empirical order over the last iterations should be superlinear (~1.84)
    f = lambda z: z ** 3 - 2 * z - 5
    iterates = []
    xs = [1.8, 2.2, 2.0 + 0.1j]
    fs = [f(x) for x in xs]
    import cmath

    for _ in range(12):
        (x0, x1, x2), (f0, f1, f2) = xs, fs
        q = (x2 - x1) / (x1 - x0)
        a = q * f2 - q * (1 + q) * f1 + q * q * f0
        b = (2 * q + 1) * f2 - (1 + q) ** 2 * f1 + q * q * f0
        c = (1 + q) * f2
        disc = cmath.sqrt(b * b - 4 * a * c)
        den = b + disc if abs(b + disc) > abs(b - disc) else b - disc
        x3 = x2 - (x2 - x1) * 2 * c / den
        iterates.append(x3)
        xs, fs = [x1, x2, x3], [f1, f2, f(x3)]
    root = iterates[-1]
    errs = [abs(z - root) for z in iterates if abs(z - root) > 1e-13]
    orders = [
        math.log(errs[k + 1] / errs[k + 2]) / math.log(errs[k] / errs[k + 1])
        for k in range(len(errs) - 2)
        if errs[k] > errs[k + 1] > errs[k + 2]
    ]
    # theoretical order 1.839, measured over the last three iterations
    assert orders and orders[-1] >= 1.8


def test_muller_on_te_resonance_function():
    delta = 0.15
    model = UNIT_MODEL
    tau = model.evaluate(delta)
    seed = quasi_static_prediction("TE", 1, 1, model)
    f = lambda w: resonance_function("TE", 1, delta, tau, w)
    root, res, it = muller_root(f, seed * 0.999, seed * 1.001, seed + 0.001j)
    assert res <= 1e-12
    assert it <= 15


# --- resonance function ------------------------------------------------------

def test_te_limiting_condition_is_j0():
    # J_1(t) + j_1(t) = t j_0(t): zeros at multiples of pi
    for t in np.linspace(0.3, 9.0, 25):
        assert_allclose(riccati_J(1, t) + sph_bessel_j(1, t), t * sph_bessel_j(0, t), rtol=1e-12)


def test_te_denominator_smallness_near_limit():
    # as delta -> 0 with tau = delta^-2, the scaled TE denominator approaches
    # the limiting combination vanishing at pi: track |F| at the prediction
    for delta in (0.02, 0.01, 0.005):
        tau = delta ** -2
        val = resonance_function("TE", 1, delta, tau, math.pi)
        scaled = abs(val) * delta ** 2
        assert scaled < 2 * delta  # -> 0 linearly with the radius


def test_tm_limiting_condition_zero_of_jn():
    # TM n=1 quasi-static roots sit at zeros of j_1
    pred = quasi_static_prediction("TM", 1, 1, UNIT_MODEL)
    assert_allclose(pred, 4.493409457909064, rtol=1e-12)


def test_resonance_function_matches_mie_denominators():
    from dieres.mie import mie_denominators

    d_te, d_tm = mie_denominators(2, 0.1, 30.0, 2.5)
    assert resonance_function("TE", 2, 0.1, 30.0, 2.5) == d_te
    assert resonance_function("TM", 2, 0.1, 30.0, 2.5) == d_tm


# --- quasi-static predictions -------------------------------------------------

def test_prediction_te_ground():
    assert_allclose(quasi_static_prediction("TE", 1, 1, UNIT_MODEL), math.pi, rtol=1e-13)


def test_prediction_scaling_with_contrast():
    model = ContrastModel(4.0)
    assert_allclose(quasi_static_prediction("TE", 1, 1, model), math.pi / 2, rtol=1e-13)


def test_prediction_finite_tau_variant():
    model = ContrastModel(1.0, laurent=(0.0, 5.0))
    delta = 0.1
    lam = 1 / math.pi ** 2
    expect = 1 / (delta * math.sqrt(lam * (delta ** -2 + 5.0)))
    assert_allclose(
        quasi_static_prediction("TE", 1, 1, model, delta, finite_tau=True), expect, rtol=1e-13
    )
    # with no Laurent terms tau(delta) = c_tau delta^-2, and the two predictors agree
    assert quasi_static_prediction("TE", 1, 1, UNIT_MODEL, 0.1, finite_tau=True) == math.pi
    assert quasi_static_prediction("TE", 1, 1, UNIT_MODEL, 0.1) == math.pi
    # with c_{-1} = 0.3 both carry the first-order shift, so their gap is second order in delta
    model = ContrastModel(1.0, (0.3,))
    deltas = (0.02, 0.01, 0.005)
    gaps = [abs(quasi_static_prediction("TE", 1, 1, model, d, finite_tau=True)
                - first_order_correction(quasi_static_prediction("TE", 1, 1, model, d), model, d)) for d in deltas]
    for (d0, g0), (d1, g1) in zip(zip(deltas, gaps), zip(deltas[1:], gaps[1:])):
        assert abs(math.log(g0 / g1) / math.log(d0 / d1) - 2) < 0.1


def test_first_order_correction_values():
    model0 = ContrastModel(1.0)
    assert first_order_correction(math.pi, model0, 0.2) == math.pi
    model1 = ContrastModel(1.0, laurent=(1.0,))
    assert_allclose(first_order_correction(math.pi, model1, 0.1), math.pi * 0.95, rtol=1e-14)
    assert_allclose(first_order_correction(math.pi, model1, 0.1), 2.9845130, atol=1e-7)


def test_correction_matches_roots_quadratically():
    # |found root - corrected seed| = O(delta^2) for a model with c_{-1} != 0
    model = ContrastModel(1.0, laurent=(0.5,))
    deltas = np.array([0.02, 0.04, 0.06, 0.08, 0.1])
    errs = []
    for d in deltas:
        root = find_resonance("TE", 1, 1, d, model).omega
        corrected = first_order_correction(quasi_static_prediction("TE", 1, 1, model), model, d)
        errs.append(abs(root - corrected))
    slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
    assert 1.7 <= slope <= 2.3


# --- find_resonance ------------------------------------------------------------

def test_find_resonance_ground_te():
    root = find_resonance("TE", 1, 1, 0.15, UNIT_MODEL)
    # frozen from a 40-digit mpmath Muller oracle run on the same denominator
    assert_allclose(root.omega, 3.0501824861741624 - 0.0259543994027477j, atol=5e-11)
    assert -0.1 < root.omega.imag < 0
    assert 2.9 < root.omega.real < math.pi
    assert root.residual <= 1e-12
    assert abs(resonance_function("TE", 1, 0.15, UNIT_MODEL.evaluate(0.15), root.omega)) <= 1e-12


def test_find_resonance_quadratic_approach_to_pi():
    deltas = np.array([0.02, 0.04, 0.08])
    errs = [abs(find_resonance("TE", 1, 1, d, UNIT_MODEL).omega - math.pi) for d in deltas]
    slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_find_resonance_regime_guard():
    with pytest.raises(RegimeError):
        find_resonance("TE", 1, 4, 0.5, UNIT_MODEL)


def test_fourth_quadrant_reflection():
    # seeding on the far side of the imaginary axis lands on the mirrored
    # root, which must be reflected back into the fourth quadrant
    root = find_resonance("TE", 1, 1, 0.15, UNIT_MODEL, seed=-3.05 + 0.0j)
    assert root.omega.real > 0 and root.omega.imag < 0


# --- sweep ---------------------------------------------------------------------

def test_sweep_red_shift_and_lower_half_plane():
    deltas = [0.05, 0.10, 0.15, 0.20]
    pts = sweep_resonance("TE", 1, 1, deltas, UNIT_MODEL)
    assert all(p.root is not None for p in pts)
    reals = [p.root.omega.real for p in pts]
    assert all(b < a for a, b in zip(reals, reals[1:]))
    assert all(p.root.omega.imag < 0 for p in pts)


def test_sweep_quadratic_error_column():
    deltas = np.arange(0.02, 0.21, 0.02)
    pts = sweep_resonance("TE", 1, 1, deltas, UNIT_MODEL)
    errs = [abs(p.root.omega - math.pi) for p in pts]
    slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_sweep_records_a_failed_point_and_goes_on():
    pts = sweep_resonance("TE", 1, 1, [0.1, 0.5, 1.0, 1.5, 3.0], UNIT_MODEL)
    assert [p.root is not None for p in pts] == [True, True, True, True, False]
    assert all(p.error is None for p in pts[:4])
    assert pts[4].delta == 3.0
    assert pts[4].error == "|delta * seed| = 5.063 leaves the quasi-static regime"


def test_sweep_requires_increasing_deltas():
    with pytest.raises(ValueError):
        sweep_resonance("TE", 1, 1, [0.1, 0.05], UNIT_MODEL)


# --- invariants -----------------------------------------------------------------

def test_mirror_symmetry_of_roots():
    root = find_resonance("TE", 1, 1, 0.12, UNIT_MODEL)
    tau = UNIT_MODEL.evaluate(0.12)
    mirrored = abs(resonance_function("TE", 1, 0.12, tau, -root.omega.conjugate()))
    assert mirrored <= 10 * max(root.residual, 1e-16)


def test_no_real_axis_roots_for_high_real_contrast():
    delta = 0.15
    tau = UNIT_MODEL.evaluate(delta)
    root = find_resonance("TE", 1, 1, delta, UNIT_MODEL).omega
    vals = [
        abs(resonance_function("TE", 1, delta, tau, w))
        for w in np.linspace(root.real - 0.2, root.real + 0.2, 81)
    ]
    assert min(vals) > 1e-3


def test_seeding_consistency_with_sphere_spectrum():
    from dieres.quasistatic import sphere_spectrum

    eigs = sphere_spectrum(6)
    by_key = {(e.family_n, e.zero_index_s): e for e in eigs}
    lam = by_key[(0, 1)].lam
    model = ContrastModel(2.0)
    pred = quasi_static_prediction("TE", 1, 1, model)
    assert abs(pred - 1 / math.sqrt(lam * 2.0)) <= 1e-12


def test_prediction_takes_integer_orders_only():
    assert quasi_static_prediction("TM", np.int64(2), np.int64(1), UNIT_MODEL) == quasi_static_prediction(
        "TM", 2, 1, UNIT_MODEL)
    for family, n, s in (("TE", 1.5, 1), ("TM", 1.5, 1), ("TE", 2, 1.5)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            quasi_static_prediction(family, n, s, UNIT_MODEL)


def test_cluster_resonances_single_family():
    from dieres.resonance import cluster_resonances

    roots = cluster_resonances("TE", 1, 1, 0.15, UNIT_MODEL, n_starts=4)
    assert len(roots) == 1
    assert abs(roots[0].omega - (3.0501824861741624 - 0.0259543994027477j)) < 1e-9


def test_cluster_resonances_skips_a_start_that_does_not_converge(monkeypatch):
    from dieres import resonance

    search, calls = resonance.find_resonance, []

    def first_start_fails(*args, **kwargs):
        calls.append(kwargs["seed"])
        if len(calls) == 1:
            raise MullerNoConvergence(kwargs["seed"], 1.0, 50)
        return search(*args, **kwargs)

    monkeypatch.setattr(resonance, "find_resonance", first_start_fails)
    roots = resonance.cluster_resonances("TE", 1, 1, 0.15, UNIT_MODEL, n_starts=4)
    assert len(calls) == 4 and len(roots) == 1
    assert abs(roots[0].omega - (3.0501824861741624 - 0.0259543994027477j)) < 1e-9


@pytest.mark.parametrize("call, name", [
    (lambda: ContrastModel(math.nan), "c_tau"),
    (lambda: ContrastModel(complex(1.0, math.inf)), "c_tau"),
    (lambda: ContrastModel(1.0, (0.3, math.nan)), "Laurent coefficient"),
    (lambda: UNIT_MODEL.evaluate(math.nan), "delta"),
    (lambda: UNIT_MODEL.evaluate(math.inf), "delta"),
    (lambda: find_resonance("TE", 1, 1, math.nan, UNIT_MODEL), "delta"),
    (lambda: find_resonance("TE", 1, 1, math.inf, UNIT_MODEL), "delta"),
    (lambda: scatter_fn_general(math.nan, math.pi, 1.0), "omega"),
    (lambda: blowup_coefficient(math.nan, 0.1, math.pi, 0.0, 0.1), "omega"),
    (lambda: dipole_approximation(WAVE, math.nan, 0.1, UNIT_MODEL), "omega"),
    (lambda: resonant_moments(WAVE, math.inf, 0.1, UNIT_MODEL), "omega"),
    (lambda: averaged_cross_sections(complex(3.3, math.nan), 0.1, UNIT_MODEL), "omega"),
    (lambda: sweep_resonance("TE", 1, 1, [0.05, math.nan, 0.1], UNIT_MODEL), "delta"),
    (lambda: dipole_approximation(WAVE, 3.3, math.nan, UNIT_MODEL), "delta"),
    (lambda: averaged_cross_sections(3.3, math.nan, UNIT_MODEL), "delta"),
    (lambda: averaged_cross_sections(3.3, math.inf, UNIT_MODEL), "delta"),
    (lambda: blowup_coefficient(3.3, math.nan, math.pi, 0.0, 0.1), "delta"),
    pytest.param(lambda: scatter_fn_general(3.3, math.nan, 1.0), "omega0", id="scatter_fn_general-omega0"),
    pytest.param(lambda: blowup_coefficient(3.3, 0.1, complex(math.pi, math.nan), 0.0, 0.1), "omega0",
                 id="blowup_coefficient-omega0"),
    (lambda: blowup_coefficient(3.3, 0.1, math.pi, 0.3, math.nan), "lambda0"),
    (lambda: find_resonance("TE", 1, 1, 0.1, UNIT_MODEL, tol=math.nan), "tol"),
    (lambda: muller_root(lambda z: z - 1, 0.5, 1.5, 1j, tol=math.inf), "tol"),
    (lambda: first_order_correction(math.nan, UNIT_MODEL, 0.1), "omega_i"),
    pytest.param(lambda: first_order_correction(3.0, UNIT_MODEL, math.inf), "delta", id="first_order_correction-delta"),
    (lambda: blowup_coefficient(3.3, 0.1, math.pi, math.nan, 0.1), "c_m1"),
    pytest.param(lambda: scatter_fn_general(3.3, math.pi, math.nan), "c_tau", id="scatter_fn_general-c_tau"),
])
def test_non_finite_parameters_are_named(call, name):
    with pytest.raises(ValueError, match=f"^{name} = .* is not finite$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: ContrastModel(-1.0), r"leading coefficient must satisfy Re c_tau > 0, Im c_tau >= 0"),
    (lambda: UNIT_MODEL.evaluate(0.0), "contrast model is evaluated at delta > 0"),
    (lambda: resonance_function("TE", 1, 0.1, 100.0, 0), "resonance function is evaluated away from omega = 0"),
    (lambda: quasi_static_prediction("TE", 0, 1, UNIT_MODEL), "mode order n must be >= 1"),
    (lambda: quasi_static_prediction("TM", 1, 1, UNIT_MODEL, 0.0, finite_tau=True),
     "finite-tau prediction needs delta > 0"),
    pytest.param(lambda: quasi_static_prediction("TE", 1, 1, UNIT_MODEL, -0.1, finite_tau=True),
                 "finite-tau prediction needs delta > 0", id="finite-tau-negative-delta"),
    (lambda: find_resonance("TE", 1, 1, 0.1, UNIT_MODEL, tol=-1.0), "tol must be positive"),
    (lambda: find_resonance("TE", 1, 1, 0.1, UNIT_MODEL, tol=0.0), "tol must be positive"),
    (lambda: find_resonance("TE", 1, 1, 0.1, UNIT_MODEL, max_iter=0), "max_iter must be >= 1"),
    (lambda: sweep_resonance("TE", 1, 1, [0.05, 0.1], UNIT_MODEL, tol=-1e-12), "tol must be positive"),
    (lambda: muller_root(lambda z: z - 1, 0.5, 1.5, 1j, max_iter=-3), "max_iter must be >= 1"),
])
def test_out_of_domain_calls_raise(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: dipole_approximation(WAVE, 3.3, -0.1, UNIT_MODEL),
    lambda: averaged_cross_sections(3.3, 0.0, UNIT_MODEL),
    lambda: find_resonance("TE", 1, 1, 0.0, UNIT_MODEL),
    lambda: scatter_fn_explicit(3.0, -1.0, 80.0),
])
def test_non_positive_radius_is_rejected(call):
    with pytest.raises(ValueError, match="^delta must be positive$"):
        call()


# Muller roots as the scalar radial pass gives them, written as float.hex so
# that an edit which moves one bit of the pass fails here:
# (family, n, s, Re omega, Im omega, residual, iterations) at delta = 0.1
PINNED_MODEL = ContrastModel(complex(1.5, 0.1), (0.3, -0.5))
PINNED_ROOTS = [
    ("TE", 1, 1, "0x1.420423bf8649bp+1", "-0x1.5b533f189a17ep-4", "0x1.840fd5733ae50p-49", 3),
    ("TE", 1, 2, "0x1.42470a16a8899p+2", "-0x1.67d4831b9122fp-3", "0x1.4aafa0017e6dep-47", 3),
    ("TE", 2, 1, "0x1.ce7271549be11p+1", "-0x1.dfbd53c706070p-4", "0x1.007fe00ff6070p-47", 3),
    ("TE", 2, 2, "0x1.8d7860c4ae76dp+2", "-0x1.9dac04e6cf169p-3", "0x1.b271321f790a4p-47", 3),
    ("TE", 3, 1, "0x1.28db43f3cf505p+2", "-0x1.34452533bae6ap-3", "0x1.0284d3e2a2305p-42", 3),
    ("TE", 3, 2, "0x1.d46feb4efed4bp+2", "-0x1.e672bac4b708fp-3", "0x1.ea4e57c727d90p-45", 3),
    ("TM", 1, 1, "0x1.cc1bac71c8e7bp+1", "-0x1.dc49693424774p-4", "0x1.69da99a5ec912p-53", 3),
    ("TM", 1, 2, "0x1.8aec68557e7b7p+2", "-0x1.ac14822c893b7p-3", "0x1.73cc0761601e8p-52", 3),
    ("TM", 2, 1, "0x1.2840739b3ad8ap+2", "-0x1.3257f1ec1a4a1p-3", "0x1.799cab7fd7b2fp-48", 3),
    ("TM", 2, 2, "0x1.d363ac158f226p+2", "-0x1.e351b09ef3521p-3", "0x1.195f2b19f4d48p-51", 3),
    ("TM", 3, 1, "0x1.679b704f4a9d1p+2", "-0x1.74bf3a71b0cbbp-3", "0x1.52505765f7d51p-46", 3),
    ("TM", 3, 2, "0x1.0c057d68031bcp+3", "-0x1.15be8bce28bd3p-2", "0x1.dd0fd4cd61f4ap-52", 3),
]
# (Re omega, Im omega, residual, iterations) of the TM n = 2, s = 1 sweep
PINNED_SWEEP = [
    ("0x1.2c04ca2524d5dp+2", "-0x1.3e4483045ed6cp-3", "0x1.5d12f2cacdd51p-42", 3),
    ("0x1.2a8d339c78b5bp+2", "-0x1.3999b5e6eab52p-3", "0x1.913fd07d09c9bp-45", 3),
    ("0x1.28b658cbf4421p+2", "-0x1.33c9f4e12114ep-3", "0x1.9ba09f4a4704fp-47", 3),
    ("0x1.267c1090f1919p+2", "-0x1.2ce07856e82bep-3", "0x1.3825045e40478p-49", 3),
    ("0x1.23d4ef9879949p+2", "-0x1.25301da27192bp-3", "0x1.3414e8f3da903p-48", 3),
    ("0x1.20b1f2af0450bp+2", "-0x1.1dceeb78c226cp-3", "0x1.2be3b8ef18236p-46", 3),
]


def _hex(root):
    return root.omega.real.hex(), root.omega.imag.hex(), root.residual.hex(), root.iterations


@pytest.mark.parametrize("family, n, s, re, im, residual, iterations", PINNED_ROOTS)
def test_root_track_is_pinned(family, n, s, re, im, residual, iterations):
    assert _hex(find_resonance(family, n, s, 0.1, PINNED_MODEL)) == (re, im, residual, iterations)


def test_root_track_sweep_is_pinned():
    points = sweep_resonance("TM", 2, 1, np.linspace(0.02, 0.2, 6), PINNED_MODEL)
    assert [_hex(p.root) for p in points] == PINNED_SWEEP
