"""Time the Mie and Bessel layers of this checkout against those of another commit.

    python tools/layer_pairs.py --base REF [--rounds R] [--repeat N]

REF is checked out with ``git worktree add --detach`` (local, no network) in a
temporary directory, which is removed at the end.  Each round runs one child
interpreter per side, ``PYTHONPATH=<side>/src`` and one BLAS thread, the side
that runs first alternating from round to round.  A child times every layer
below as the best of N repeats; the report gives, per layer, the median of
those bests over the R rounds for each side and the ratio head / base (below
1: this checkout is faster).

Layers: the scalar Miller pass of j at n = 12 and z = 2.88, an interior
argument near pi (``specfun._rows``), the array pass ``radial_table`` of j at
n_max = 8 on 128 seeded points with 1 < |z| < 20 (upward and Miller elements),
scalar ``mie_denominators`` at n = 1 next to the first TE resonance,
``mie._factor_table`` at n_max = 12, ``mie_coefficients`` at n_max = 12 (the
incidence memo warm), ``cross_sections`` of that table, and the per-omega
cost of one 126-point cross-section spectrum around the interior size pi, as
the ``cross-sections`` grids of the xs-sweep workload, taken two ways: as the
library chain (``ScatterConfig``, ``mie_coefficients``, ``cross_sections`` per
point) and as the path the CLI takes (``cli.run_config`` of the
``cross-sections`` command on the same grid and incidence).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import timeit


def _child(repeat):
    """Print {layer: best seconds per call} of the dieres on sys.path as JSON."""
    import numpy as np

    import dieres
    from dieres import cli, mie, specfun

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

    def spectrum():
        cli.run_config(request)

    rng = np.random.default_rng(8)
    points = (1 + 19 * rng.random(128)) * np.exp(2j * np.pi * rng.random(128))

    calls = {
        "_rows(12, 2.88) Miller": (lambda: specfun._rows(12, 2.88 + 0j, "j"), 2000),
        "radial_table(8, 128 points)": (lambda: specfun.radial_table(8, points), 200),
        "mie_denominators": (lambda: mie.mie_denominators(1, 0.1, complex(150.0, 10.0), 2.56 - 0.09j), 2000),
        "_factor_table(12)": (lambda: mie._factor_table(12, delta, tau, omega), 200),
        "mie_coefficients(12)": (lambda: mie.mie_coefficients(cfg, wave), 200),
        "cross_sections": (lambda: mie.cross_sections(table), 500),
        "126-point chain per omega": (chain, 1),
        "126-point CLI per omega": (spectrum, 1),
    }
    chain()  # fills the incidence memo and the caches of the first calls
    best = {}
    for name, (call, number) in calls.items():
        per_call = min(timeit.repeat(call, number=number, repeat=repeat)) / number
        best[name] = per_call / (len(grid) if call in (chain, spectrum) else 1)
    print(json.dumps(best))


def _run_side(src, repeat):
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = f"import sys; sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r}); " \
           f"import layer_pairs; layer_pairs._child({repeat})"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="commit to compare against")
    parser.add_argument("--rounds", type=int, default=7, help="rounds of one child per side (default 7)")
    parser.add_argument("--repeat", type=int, default=7, help="repeats per layer in a child (default 7)")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.repeat < 1:
        parser.error("--rounds and --repeat must be >= 1")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    times = {"base": [], "head": []}
    with tempfile.TemporaryDirectory() as tmp:
        checkout = os.path.join(tmp, "base")
        subprocess.run(["git", "worktree", "add", "--quiet", "--detach", checkout, args.base], cwd=root, check=True)
        try:
            sides = {"base": os.path.join(checkout, "src"), "head": os.path.join(root, "src")}
            for r in range(args.rounds):
                for side in (("base", "head") if r % 2 == 0 else ("head", "base")):
                    times[side].append(_run_side(sides[side], args.repeat))
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", checkout], cwd=root, check=True)
    print(f"base {args.base}, {args.rounds} rounds, best of {args.repeat}; median per side, in microseconds")
    print(f"{'layer':<28}{'base':>10}{'head':>10}{'head/base':>11}")
    for name in times["base"][0]:
        base, new = (statistics.median(t[name] for t in times[side]) * 1e6 for side in ("base", "head"))
        print(f"{name:<28}{base:>10.2f}{new:>10.2f}{new / base:>11.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
