"""Data-emitting command line front end: configuration handling, physical
units conversion, sweep drivers and CSV/JSON emission.

Conventions: '.' decimal separator, ',' delimiter, '#'-prefixed metadata
lines (schema and units), complex columns split into re_/im_ pairs, floats
printed with 17 significant digits so re-parsing is bit-exact.
"""

import argparse
import functools
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import mie, quasistatic, resonance
from .fields import IncidentWave
from .specfun import _finite, bessel_zero


@dataclass
class CsvTable:
    columns: list
    units: list
    rows: list
    meta: list = field(default_factory=list)

    def render_csv(self) -> str:
        """The CSV document. Each run of rows that share one tuple of cell types
        prints in one % operation, its row format repeated once per row."""
        lines = [f"# schema: {','.join(self.columns)}"]
        lines.append(f"# units: {','.join(self.units)}")
        lines.extend(f"# {m}" for m in self.meta)
        lines.append(",".join(self.columns))
        body = []
        for _, run in itertools.groupby(self.rows, lambda row: tuple(map(type, row))):
            run = list(run)
            row = ",".join(map(_conversion, run[0])) + "\n"
            body.append(row * len(run) % tuple(itertools.chain.from_iterable(run)))
        return "\n".join(lines) + "\n" + "".join(body)

    def render_json(self) -> str:
        payload = {"columns": self.columns, "units": self.units, "meta": self.meta,
                   "rows": [[_json_cell(v) for v in row] for row in self.rows]}
        return json.dumps(payload, indent=2) + "\n"


def _conversion(v):
    """The % conversion of a cell: %d for int, bool and numpy integers, %.17g for any other."""
    return "%d" if isinstance(v, (int, np.integer)) else "%.17g"


def _format_cell(v):
    return _conversion(v) % v


def _json_cell(v):
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v)


def parse_csv(text: str) -> CsvTable:
    """Re-parse an emitted CSV document (inverse of render_csv)."""
    meta, units, lines = [], [], [line for line in text.splitlines() if line.strip()]
    for body in (line[1:].strip() for line in lines if line.startswith("#")):
        if body.startswith("units:"):
            units = body[len("units:"):].strip().split(",")
        elif not body.startswith("schema:"):
            meta.append(body)
    table = [line.split(",") for line in lines if not line.startswith("#")]
    return CsvTable(table[0] if table else [], units, [[_parse_cell(c) for c in cells] for cells in table[1:]], meta)


def _parse_cell(cell):
    if cell == "-0":  # how %.17g prints -0.0; no int prints so
        return -0.0
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def to_dimensionless(radius_nm: float, wavelength_nm: float, epsilon_r: complex):
    """Physical (radius, wavelength, permittivity) to the dimensionless
    (size parameter, contrast, resonance indicator) triple; the indicator
    sits near pi when the interior wavelength matches the particle size."""
    radius_nm, wavelength_nm = _finite("radius_nm", radius_nm), _finite("wavelength_nm", wavelength_nm)
    epsilon_r = _finite("epsilon_r", complex(epsilon_r))
    if radius_nm <= 0 or wavelength_nm <= 0:
        raise ValueError("radius and wavelength must be positive")
    if epsilon_r.real <= 1:
        raise ValueError("relative permittivity must exceed 1")
    delta_omega = 2 * math.pi * radius_nm / wavelength_nm
    tau = epsilon_r - 1
    indicator = delta_omega * math.sqrt(abs(1 + tau))
    return delta_omega, tau, indicator


def _complex_value(raw, default=None):
    if raw is None:
        return default
    if isinstance(raw, (int, float)):
        return complex(raw)
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        return complex(float(raw[0]), float(raw[1]))
    raise ValueError(f"complex values are encoded as [re, im], got {raw!r}")


def _unit_vector(cfg, name, default):
    """The vector cfg holds under name (default if absent) scaled to unit
    length, checked to have three components and a finite, nonzero length."""
    raw = cfg.get(name)
    vec = np.asarray(default if raw is None else [float(v) for v in raw], dtype=float)
    if vec.shape != (3,):
        raise ValueError("vectors need exactly three components")
    size = _finite(f"|{name}|", np.linalg.norm(vec))
    if size == 0:
        raise ValueError(f"{name} must be a nonzero vector")
    return vec / size


def _model(cfg):
    c_tau = _complex_value(cfg.get("c_tau"), 1.0)
    laurent = tuple(float(v) for v in cfg.get("laurent", ()))
    return resonance.ContrastModel(c_tau, laurent)


def _incident(cfg, omega):
    return IncidentWave(_unit_vector(cfg, "direction", [0.0, 0.0, 1.0]),
                        _unit_vector(cfg, "polarization", [1.0, 0.0, 0.0]), omega)


def _omega_grid(cfg):
    lo = float(cfg["omega_min"])
    hi = float(cfg["omega_max"])
    count = int(cfg.get("omega_count", 100))
    if count < 2 or hi <= lo:
        raise ValueError("need omega_max > omega_min and at least two grid points")
    return np.linspace(lo, hi, count).tolist()


def _sphere(cfg):
    """The sphere's radius delta and contrast tau, delta^-2 unless given."""
    delta = float(cfg["delta"])
    return delta, _complex_value(cfg.get("tau"), delta ** -2)


def _mode(cfg):
    """The contrast model and the resonance's family, order n and zero index s."""
    return _model(cfg), str(cfg.get("family", "TE")), int(cfg.get("n", 1)), int(cfg.get("s", 1))


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its rows and its meta lines
# ---------------------------------------------------------------------------

def _cmd_bessel_zeros(cfg):
    order = int(cfg.get("order", 0))
    count = int(cfg.get("count", 5))
    return [[order, s, bessel_zero(order, s)] for s in range(1, count + 1)], []


def _cmd_spectrum(cfg):
    count = int(cfg.get("count", 8))
    return [[rank, e.lam, e.k, e.family_n, e.zero_index_s, e.multiplicity]
            for rank, e in enumerate(quasistatic.sphere_spectrum(count), start=1)], []


def _root_row(delta, root, prediction, limit):
    return [delta, root.omega.real, root.omega.imag, root.residual, root.iterations,
            prediction.real, prediction.imag, abs(root.omega - limit)]


def _cmd_resonance(cfg):
    model, family, n, s = _mode(cfg)
    delta = float(cfg["delta"])
    tol = float(cfg.get("tol", 1e-12))
    root = resonance.find_resonance(family, n, s, delta, model, tol=tol)
    limit = resonance.quasi_static_prediction(family, n, s, model)
    return [_root_row(delta, root, root.seed, limit)], [f"family: {family}, n: {n}, s: {s}"]


def _cmd_resonance_sweep(cfg):
    model, family, n, s = _mode(cfg)
    if "deltas" in cfg:
        deltas = [float(d) for d in cfg["deltas"]]
    else:
        deltas = list(np.linspace(float(cfg.get("delta_min", 0.02)),
                                  float(cfg.get("delta_max", 0.2)),
                                  int(cfg.get("delta_count", 10))))
    limit = resonance.quasi_static_prediction(family, n, s, model)
    # seed chaining makes the sweep sequential by contract
    points = resonance.sweep_resonance(family, n, s, deltas, model)
    rows = [_root_row(p.delta, p.root, p.prediction, limit) for p in points if p.root is not None]
    meta = [f"family: {family}, n: {n}, s: {s}"]
    meta.extend(f"failed delta={p.delta}: {p.error}" for p in points if p.root is None)
    return rows, meta


def _cmd_mie(cfg):
    delta, tau = _sphere(cfg)
    omega = complex(float(cfg["omega"]), float(cfg.get("omega_im", 0.0)))
    n_max = cfg.get("n_max")
    config = mie.ScatterConfig(delta, tau, omega, None if n_max is None else int(n_max))
    table = mie.mie_coefficients(config, _incident(cfg, omega))
    rows = [[n, m, g.real, g.imag, e.real, e.imag]
            for (n, m), g, e in zip(table.gamma, table.te[1:].tolist(), table.tm[1:].tolist())]
    return rows, [f"delta: {_format_cell(delta)}, n_max: {config.n_max}"]


def _cmd_cross_sections(cfg):
    delta, tau = _sphere(cfg)
    grid = _omega_grid(cfg)
    points = list(zip(grid, mie._spectrum(delta, tau, grid, _incident(cfg, grid[0]))))
    return ([[om, r.Qs, r.Qext, r.Qabs, r.n_max_used, r.converged] for om, r in points if not isinstance(r, Exception)],
            [f"failed omega={om}: {r}" for om, r in points if isinstance(r, Exception)])


def _cmd_scatter_functions(cfg):
    delta, model = float(cfg["delta"]), _model(cfg)
    model.evaluate(delta)  # the contrast's checks precede the grid's
    grid = _omega_grid(cfg)
    tilde, hat = quasistatic._scatter_grid(grid, delta, model)
    rows = np.column_stack((grid, tilde.real, tilde.imag, hat.real, hat.imag)).tolist()
    return rows, [f"delta: {_format_cell(delta)}"]


def _cmd_amplitude(cfg):
    delta, tau = _sphere(cfg)
    omega = float(cfg["omega"])
    phi = float(cfg.get("phi", 0.0))
    count = int(cfg.get("theta_count", 37))
    config = mie.ScatterConfig(delta, tau, omega)
    table = mie.mie_coefficients(config, _incident(cfg, omega))
    thetas = np.linspace(0.0, math.pi, count)
    xh = np.array([[math.sin(t) * math.cos(phi), math.sin(t) * math.sin(phi), math.cos(t)] for t in thetas])
    rows = [[theta, ff[0].real, ff[0].imag, ff[1].real, ff[1].imag, ff[2].real, ff[2].imag]
            for theta, ff in zip(thetas, mie.far_field(table, xh))]
    return rows, [f"phi: {_format_cell(phi)}"]


def _cmd_moments(cfg):
    delta = float(cfg["delta"])
    model = _model(cfg)
    omega = float(cfg["omega"])
    w = _incident(cfg, omega)
    pair = quasistatic.dipole_approximation(w, omega, delta, model)
    rm = quasistatic.resonant_moments(w, omega, delta, model)
    row = [part for v in (*pair.p, *pair.m) for part in (v.real, v.imag)]
    row += [float(np.linalg.norm(moment)) for moment in (rm.m1_hat, rm.m2_hat, rm.q0_hat)]
    return [row], []


def _cmd_units(cfg):
    radius = float(cfg["radius_nm"])
    wavelength = float(cfg["wavelength_nm"])
    eps = _complex_value(cfg.get("epsilon_r"), 16.0)
    delta_omega, tau, indicator = to_dimensionless(radius, wavelength, eps)
    return [[radius, wavelength, delta_omega, tau.real, tau.imag, indicator]], []


# argparse keywords of each flag, keyed by its config entry; the flag is
# --<entry> with '_' written '-', and argparse stores it back under the entry
_FLAGS = {
    **dict.fromkeys(("count", "delta_count", "n", "n_max", "omega_count", "order", "s", "theta_count"),
                    dict(type=int)),
    **dict.fromkeys(("delta", "delta_max", "delta_min", "omega", "omega_im", "omega_max", "omega_min", "phi",
                     "radius_nm", "tol", "wavelength_nm"), dict(type=float)),
    **dict.fromkeys(("c_tau", "epsilon_r", "tau"), dict(type=float, nargs=2, metavar=("RE", "IM"))),
    **dict.fromkeys(("deltas", "laurent"), dict(type=float, nargs="*")),
    **dict.fromkeys(("direction", "polarization"), dict(type=float, nargs=3)),
    "family": dict(choices=("TE", "TM")),
}

# the help of a subcommand's flag, where it has one
_HELP = {("spectrum", "count"): f"number of eigenvalues, 1 to {quasistatic._MAX_COUNT} (default 8)"}
_MODE_FLAGS = ("family", "n", "s", "c_tau", "laurent")
_WAVE_FLAGS = ("direction", "polarization")
_GRID_FLAGS = ("omega_min", "omega_max", "omega_count")
_SWEEP_COLUMNS = ("delta", "re_omega", "im_omega", "residual", "iterations",
                  "re_qs_seed", "im_qs_seed", "abs_err_vs_pi")
_UNITS = {"theta": "rad", "radius_nm": "nm", "wavelength_nm": "nm"}

# subcommand -> (handler, output columns, flags in --help order)
_COMMANDS = {
    "bessel-zeros": (_cmd_bessel_zeros, ("order", "s", "zero"), ("order", "count")),
    "spectrum": (_cmd_spectrum, ("rank", "lambda", "k", "family_n", "s", "multiplicity"), ("count",)),
    "resonance": (_cmd_resonance, _SWEEP_COLUMNS, ("delta", "tol", *_MODE_FLAGS)),
    "resonance-sweep": (_cmd_resonance_sweep, _SWEEP_COLUMNS,
                        ("delta_min", "delta_max", "delta_count", "deltas", *_MODE_FLAGS)),
    "mie": (_cmd_mie, ("n", "m", "re_gamma", "im_gamma", "re_eta", "im_eta"),
            ("delta", "tau", "omega", "omega_im", "n_max", *_WAVE_FLAGS)),
    "cross-sections": (_cmd_cross_sections, ("omega", "Qs", "Qext", "Qabs", "n_max_used", "converged"),
                       ("delta", "tau", *_GRID_FLAGS, *_WAVE_FLAGS)),
    "scatter-functions": (_cmd_scatter_functions, ("omega", "re_s_tilde", "im_s_tilde", "re_s_hat", "im_s_hat"),
                          ("delta", "c_tau", "laurent", *_GRID_FLAGS)),
    "amplitude": (_cmd_amplitude, ("theta", "re_E1", "im_E1", "re_E2", "im_E2", "re_E3", "im_E3"),
                  ("delta", "tau", "omega", "phi", "theta_count", *_WAVE_FLAGS)),
    "moments": (_cmd_moments, ("re_p1", "im_p1", "re_p2", "im_p2", "re_p3", "im_p3",
                               "re_m1", "im_m1", "re_m2", "im_m2", "re_m3", "im_m3",
                               "abs_M1hat", "abs_M2hat", "abs_Q0hat"),
                ("delta", "omega", "c_tau", "laurent", *_WAVE_FLAGS)),
    "units": (_cmd_units, ("radius_nm", "wavelength_nm", "delta_omega", "re_tau", "im_tau", "resonance_indicator"),
              ("radius_nm", "wavelength_nm", "epsilon_r")),
}


def run_config(cfg: dict) -> CsvTable:
    """Dispatch a configuration dictionary to its subcommand handler."""
    command = cfg.get("command")
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    handler, columns, _ = _COMMANDS[command]
    rows, meta = handler(cfg)
    return CsvTable(list(columns), [_UNITS.get(c, "-") for c in columns], rows, meta)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every negative float literal, exponent
    forms such as -2.5e-05 and -inf included, as a value, not as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$",
                                                   re.IGNORECASE)


@functools.lru_cache(maxsize=None)
def build_parser():
    parser = _Parser(
        prog="dieres",
        description="dielectric subwavelength resonances and Mie scattering for high-index spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file; flags override its entries")
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    for name, (_, columns, flags) in _COMMANDS.items():
        schema = ",".join(columns)
        p = sub.add_parser(name, parents=[common], help=f"emit columns: {schema}",
                           description=f"column schema: {schema}",
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        for key in flags:
            p.add_argument("--" + key.replace("_", "-"), help=_HELP.get((name, key)), **_FLAGS[key])
    return parser


def _merge_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg.update(json.load(fh))
    for key, value in vars(args).items():
        if key in ("config", "out", "format"):
            continue
        if value is not None:
            cfg[key] = value
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        table = run_config(cfg)
        text = table.render_json() if args.format == "json" else table.render_csv()
    except Exception as exc:  # noqa: BLE001 - the CLI contract wants a record
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
