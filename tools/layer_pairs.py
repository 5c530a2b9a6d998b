"""Time the Bessel, Mie, CLI and multipole layers of this checkout against those of another commit.

    python tools/layer_pairs.py --base REF [--rounds R] [--repeat N]

REF is checked out with ``git worktree add --detach`` (local, no network) in a
temporary directory. Its ``src/dieres`` and this checkout's are imported into
this one interpreter under private package names, and the checkout is removed
before any timing starts. BLAS runs on one thread. Each round times every
layer below on both sides back to back, as the best of N repeats, the side
that runs first alternating from round to round. Per layer, the report gives
each side's median over the R rounds and the median and quartiles of the
per-round ratios head / base (below 1: this checkout is faster).

Layers: the scalar Miller pass of j at n = 12 and z = 2.88, an interior
argument near pi (``specfun._rows``); the array pass ``radial_table`` of j at
n_max = 8 on 128 seeded points with 1 < |z| < 20 (upward and Miller elements);
scalar ``mie_denominators`` at n = 1 next to the first TE resonance;
``mie._factor_table`` and ``mie_coefficients`` (incidence memo warm) at
n_max = 12, and ``cross_sections`` of that table; and the per-omega cost of one
126-point cross-section spectrum around the interior size pi, as the xs-sweep
workload's ``cross-sections`` grids, taken as the library chain
(``ScatterConfig``, ``mie_coefficients``, ``cross_sections`` per point) and as
the CLI path (``cli.run_config`` of that command on the same grid and incidence),
and the CLI path of a 24-point grid over the same sizes: the two lie on either
side of the run length from which ``mie._spectrum`` takes its array pass;
``render_csv`` of an 800-row ``scatter-functions`` table, built once with
``cli.run_config``, per row, and that 800-point request itself through
``cli.run_config`` (the grid's array pass and its rows); the four Cartesian
moments (magnetic 1 and 2, electric 0 and 1) of a seeded field on the
16x24x48 ball quadrature, as the field-maps workload's largest ``moments``
request; ``amplitude_from_moments`` of those moments at 8 seeded directions; ``far_field`` of the n_max = 12 table
on the 64x128 ``sphere_quadrature`` nodes (iso-latitude rings) and on a
25-direction meridian, as the CLI's ``amplitude`` builds it; and the plane-wave
expansion ``fields._incidence`` of a fresh incidence at n_max = 12, past its memo.

Beside the times of the moments layer and the two ``far_field`` layers, the
report gives each side's minor page faults per call (``ru_minflt`` taken around
the timed repeats, median over the rounds): a call whose temporaries are
allocated afresh faults their pages in again, a call that reuses its memory
does not.
"""

import argparse
import importlib.util
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import timeit


def _load(src, name):
    """Import ``<src>/dieres`` as the package ``name``; return it and its ``cli`` module."""
    pkg = os.path.join(src, "dieres")
    spec = importlib.util.spec_from_file_location(name, f"{pkg}/__init__.py", submodule_search_locations=[pkg])
    package = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return package, importlib.import_module(name + ".cli")


# the layers whose minor page faults per call the report prints
FAULT_LAYERS = ("16x24x48 moments", "far_field 64x128 nodes", "far_field 25-point meridian")


def _layers(dieres, cli, repeat):
    """{layer: timer} for one loaded tree; a timer returns the best of ``repeat`` in seconds per call and
    the minor page faults per call over all the repeats."""
    import numpy as np

    mie, specfun = dieres.mie, dieres.specfun
    delta, tau = 0.15, complex(80.0, 0.4)
    scale = abs(delta * (1 + tau) ** 0.5)
    omega = 3.3 / scale
    direction = np.array([0.3, -0.4, 0.866]) / np.linalg.norm([0.3, -0.4, 0.866])
    wave = dieres.IncidentWave(direction, np.array([0.8, 0.6, 0.0]), omega)
    cfg = mie.ScatterConfig(delta, tau, omega, n_max=12)
    table = mie.mie_coefficients(cfg, wave)
    grid = np.linspace(3.1 / scale, 3.5 / scale, 126).tolist()

    def chain():
        for om in grid:
            mie.cross_sections(mie.mie_coefficients(mie.ScatterConfig(delta, tau, om), wave))

    request = {"command": "cross-sections", "delta": delta, "tau": [tau.real, tau.imag], "omega_min": grid[0],
               "omega_max": grid[-1], "omega_count": len(grid), "direction": direction.tolist(),
               "polarization": [0.8, 0.6, 0.0]}
    small_request = dict(request, omega_count=24)
    scatter_request = {"command": "scatter-functions", "delta": 0.15, "c_tau": [1.5, 0.0],
                       "omega_min": 2.3, "omega_max": 2.8, "omega_count": 800}
    scatter = cli.run_config(scatter_request)
    rng = np.random.default_rng(8)
    points = (1 + 19 * rng.random(128)) * np.exp(2j * np.pi * rng.random(128))
    quad = dieres.ball_quadrature(16, 24, 48)
    c, g = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    field = dieres.DecomposedField(lambda y: np.outer(y @ direction, c), lambda y: np.broadcast_to(g, y.shape).copy())

    def moments():
        return [dieres.magnetic_moment(1, field, quad), dieres.magnetic_moment(2, field, quad),
                dieres.electric_moment(0, field, quad), dieres.electric_moment(1, field, quad)]

    cartesian = moments()
    directions = rng.normal(size=(8, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    nodes = dieres.sphere_quadrature(64, 128).points
    meridian = np.array([[np.sin(t), 0.0, np.cos(t)] for t in np.linspace(0.0, np.pi, 25)])
    incidence = (wave.direction.tobytes(), wave.polarization.tobytes())

    calls = {
        "_rows(12, 2.88) Miller": (lambda: specfun._rows(12, 2.88 + 0j, "j"), 2000, 1),
        "radial_table(8, 128 points)": (lambda: specfun.radial_table(8, points), 200, 1),
        "mie_denominators": (lambda: mie.mie_denominators(1, 0.1, complex(150.0, 10.0), 2.56 - 0.09j), 2000, 1),
        "_factor_table(12)": (lambda: mie._factor_table(12, delta, tau, omega), 200, 1),
        "mie_coefficients(12)": (lambda: mie.mie_coefficients(cfg, wave), 200, 1),
        "cross_sections": (lambda: mie.cross_sections(table), 500, 1),
        "126-point chain per omega": (chain, 1, len(grid)),
        "126-point CLI per omega": (lambda: cli.run_config(request), 1, len(grid)),
        "24-point CLI per omega": (lambda: cli.run_config(small_request), 5, 24),
        "800-row CSV per row": (scatter.render_csv, 5, len(scatter.rows)),
        "800-point scatter-functions request": (lambda: cli.run_config(scatter_request), 5, 1),
        "16x24x48 moments": (moments, 20, 1),
        "amplitude at 8 directions": (lambda: [dieres.amplitude_from_moments(cartesian, 0.3, 40.0, 2.5, x)
                                               for x in directions], 200, 1),
        "far_field 64x128 nodes": (lambda: mie.far_field(table, nodes), 10, 1),
        "far_field 25-point meridian": (lambda: mie.far_field(table, meridian), 500, 1),
        "_incidence(12) fresh": (lambda: dieres.fields._incidence.__wrapped__(12, *incidence), 100, 1),
    }
    chain()  # fills the incidence memo and the caches of the first calls

    def timer(call, number, per):
        def best():
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            seconds = min(timeit.repeat(call, number=number, repeat=repeat)) / number / per
            return seconds, (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / (number * repeat)
        return best
    return {name: timer(*call) for name, call in calls.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="commit to compare against")
    parser.add_argument("--rounds", type=int, default=7, help="rounds of every layer on both sides (default 7)")
    parser.add_argument("--repeat", type=int, default=7, help="repeats per layer, side and round (default 7)")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.repeat < 1:
        parser.error("--rounds and --repeat must be >= 1")
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")  # before numpy loads
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with tempfile.TemporaryDirectory() as tmp:
        checkout = os.path.join(tmp, "base")
        subprocess.run(["git", "worktree", "add", "--quiet", "--detach", checkout, args.base], cwd=root, check=True)
        try:
            base = _load(os.path.join(checkout, "src"), "_layer_pairs_base")
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", checkout], cwd=root, check=True)
    sides = {"base": _layers(*base, args.repeat),
             "head": _layers(*_load(os.path.join(root, "src"), "_layer_pairs_head"), args.repeat)}
    times = {side: {name: [] for name in sides["head"]} for side in sides}
    faults = {side: {name: [] for name in sides["head"]} for side in sides}
    for r in range(args.rounds):
        for name in sides["head"]:
            for side in (("base", "head") if r % 2 == 0 else ("head", "base")):
                seconds, per_call = sides[side][name]()
                times[side][name].append(seconds)
                faults[side][name].append(per_call)
    print(f"base {args.base}, {args.rounds} rounds, best of {args.repeat}; medians in microseconds, ratio quartiles,"
          " minor faults per call")
    print(f"{'layer':<36}{'base':>10}{'head':>10}{'head/base':>11}{'q1':>8}{'q3':>8}{'base flt':>10}{'head flt':>10}")
    for name, base_times in times["base"].items():
        ratios = [h / b for h, b in zip(times["head"][name], base_times)]
        q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
        base_us, head_us = (statistics.median(times[side][name]) * 1e6 for side in ("base", "head"))
        flt = "".join(f"{statistics.median(faults[side][name]):>10.0f}" for side in ("base", "head"))
        print(f"{name:<36}{base_us:>10.2f}{head_us:>10.2f}{statistics.median(ratios):>11.3f}{q1:>8.3f}{q3:>8.3f}"
              f"{flt if name in FAULT_LAYERS else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
