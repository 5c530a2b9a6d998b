"""Data-emitting command line front end: configuration handling, physical
units conversion, sweep drivers and CSV/JSON emission.

Conventions: '.' decimal separator, ',' delimiter, '#'-prefixed metadata
lines (schema and units), complex columns split into re_/im_ pairs, floats
printed with 17 significant digits so re-parsing is bit-exact.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import mie, quasistatic, resonance
from .fields import IncidentWave
from .specfun import bessel_zero


@dataclass
class CsvTable:
    columns: list
    units: list
    rows: list
    meta: list = field(default_factory=list)

    def render_csv(self) -> str:
        lines = [f"# schema: {','.join(self.columns)}"]
        lines.append(f"# units: {','.join(self.units)}")
        lines.extend(f"# {m}" for m in self.meta)
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_format_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        payload = {
            "columns": self.columns,
            "units": self.units,
            "meta": self.meta,
            "rows": [[_json_cell(v) for v in row] for row in self.rows],
        }
        return json.dumps(payload, indent=2) + "\n"


def _format_cell(v):
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _json_cell(v):
    if isinstance(v, bool):
        return 1 if v else 0
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(format(float(v), ".17g"))


def parse_csv(text: str) -> CsvTable:
    """Re-parse an emitted CSV document (inverse of render_csv)."""
    meta = []
    header = None
    rows = []
    units = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("schema:"):
                continue
            if body.startswith("units:"):
                units = body[len("units:"):].strip().split(",")
                continue
            meta.append(body)
            continue
        cells = line.split(",")
        if header is None:
            header = cells
        else:
            rows.append([_parse_cell(c) for c in cells])
    return CsvTable(header or [], units, rows, meta)


def _parse_cell(cell):
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def to_dimensionless(radius_nm: float, wavelength_nm: float, epsilon_r: complex):
    """Physical (radius, wavelength, permittivity) to the dimensionless
    (size parameter, contrast, resonance indicator) triple; the indicator
    sits near pi when the interior wavelength matches the particle size."""
    if radius_nm <= 0 or wavelength_nm <= 0:
        raise ValueError("radius and wavelength must be positive")
    epsilon_r = complex(epsilon_r)
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


def _vector(raw, default):
    if raw is None:
        return np.asarray(default, dtype=float)
    vec = np.asarray([float(v) for v in raw], dtype=float)
    if vec.shape != (3,):
        raise ValueError("vectors need exactly three components")
    return vec


def _model(cfg):
    c_tau = _complex_value(cfg.get("c_tau"), 1.0)
    laurent = tuple(float(v) for v in cfg.get("laurent", ()))
    return resonance.ContrastModel(c_tau, laurent)


def _incident(cfg, omega):
    d = _vector(cfg.get("direction"), [0.0, 0.0, 1.0])
    e0 = _vector(cfg.get("polarization"), [1.0, 0.0, 0.0])
    return IncidentWave(d / np.linalg.norm(d), e0 / np.linalg.norm(e0), omega)


def _omega_grid(cfg):
    lo = float(cfg["omega_min"])
    hi = float(cfg["omega_max"])
    count = int(cfg.get("omega_count", 100))
    if count < 2 or hi <= lo:
        raise ValueError("need omega_max > omega_min and at least two grid points")
    return np.linspace(lo, hi, count)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_bessel_zeros(cfg):
    order = int(cfg.get("order", 0))
    count = int(cfg.get("count", 5))
    rows = [[order, s, bessel_zero(order, s)] for s in range(1, count + 1)]
    return CsvTable(["order", "s", "zero"], ["-", "-", "-"], rows)


def _cmd_spectrum(cfg):
    count = int(cfg.get("count", 8))
    rows = []
    for rank, e in enumerate(quasistatic.sphere_spectrum(count), start=1):
        rows.append([rank, e.lam, e.k, e.family_n, e.zero_index_s, e.multiplicity])
    return CsvTable(
        ["rank", "lambda", "k", "family_n", "s", "multiplicity"],
        ["-"] * 6,
        rows,
    )


def _root_row(delta, root, prediction, limit):
    return [
        delta,
        root.omega.real,
        root.omega.imag,
        root.residual,
        root.iterations,
        prediction.real,
        prediction.imag,
        abs(root.omega - limit),
    ]


_SWEEP_COLUMNS = ["delta", "re_omega", "im_omega", "residual", "iterations",
                  "re_qs_seed", "im_qs_seed", "abs_err_vs_pi"]


def _cmd_resonance(cfg):
    model = _model(cfg)
    family = str(cfg.get("family", "TE"))
    n = int(cfg.get("n", 1))
    s = int(cfg.get("s", 1))
    delta = float(cfg["delta"])
    tol = float(cfg.get("tol", 1e-12))
    root = resonance.find_resonance(family, n, s, delta, model, tol=tol)
    limit = resonance.quasi_static_prediction(family, n, s, model)
    rows = [_root_row(delta, root, root.seed, limit)]
    return CsvTable(_SWEEP_COLUMNS, ["-"] * 8, rows,
                    meta=[f"family: {family}, n: {n}, s: {s}"])


def _cmd_resonance_sweep(cfg):
    model = _model(cfg)
    family = str(cfg.get("family", "TE"))
    n = int(cfg.get("n", 1))
    s = int(cfg.get("s", 1))
    if "deltas" in cfg:
        deltas = [float(d) for d in cfg["deltas"]]
    else:
        deltas = list(np.linspace(float(cfg.get("delta_min", 0.02)),
                                  float(cfg.get("delta_max", 0.2)),
                                  int(cfg.get("delta_count", 10))))
    limit = resonance.quasi_static_prediction(family, n, s, model)
    # seed chaining makes the sweep sequential by contract
    points = resonance.sweep_resonance(family, n, s, deltas, model)
    rows = []
    for p in points:
        if p.root is None:
            continue
        rows.append(_root_row(p.delta, p.root, p.prediction, limit))
    meta = [f"family: {family}, n: {n}, s: {s}"]
    meta.extend(f"failed delta={p.delta}: {p.error}" for p in points if p.root is None)
    return CsvTable(_SWEEP_COLUMNS, ["-"] * 8, rows, meta=meta)


def _cmd_mie(cfg):
    delta = float(cfg["delta"])
    tau = _complex_value(cfg.get("tau"), delta ** -2)
    omega = complex(float(cfg["omega"]), float(cfg.get("omega_im", 0.0)))
    n_max = cfg.get("n_max")
    config = mie.ScatterConfig(delta, tau, omega, int(n_max) if n_max else None)
    table = mie.mie_coefficients(config, _incident(cfg, omega))
    rows = []
    for n in range(1, config.n_max + 1):
        for m in range(-n, n + 1):
            g = table.gamma[(n, m)]
            e = table.eta[(n, m)]
            rows.append([n, m, g.real, g.imag, e.real, e.imag])
    return CsvTable(
        ["n", "m", "re_gamma", "im_gamma", "re_eta", "im_eta"],
        ["-"] * 6,
        rows,
        meta=[f"delta: {_format_cell(delta)}, n_max: {config.n_max}"],
    )


def _cmd_cross_sections(cfg):
    delta = float(cfg["delta"])
    tau = _complex_value(cfg.get("tau"), delta ** -2)
    rows = []
    meta = []
    for om in _omega_grid(cfg):
        om = float(om)
        config = mie.ScatterConfig(delta, tau, om)
        try:
            rep = mie.cross_sections(mie.mie_coefficients(config, _incident(cfg, om)))
        except mie.ResonanceError as exc:
            meta.append(f"failed omega={om}: {exc}")
            continue
        rows.append([om, rep.Qs, rep.Qext, rep.Qabs, rep.n_max_used, rep.converged])
    return CsvTable(
        ["omega", "Qs", "Qext", "Qabs", "n_max_used", "converged"],
        ["-"] * 6,
        rows,
        meta=meta,
    )


def _cmd_scatter_functions(cfg):
    delta = float(cfg["delta"])
    model = _model(cfg)
    tau = model.evaluate(delta)
    omega0 = quasistatic.quasi_static_pole(model)
    rows = []
    for om in _omega_grid(cfg):
        om = float(om)
        try:
            s_tilde = quasistatic.scatter_fn_explicit(om, delta, tau)
        except quasistatic.PoleError:
            s_tilde = complex(math.nan, math.nan)
        try:
            s_hat = quasistatic.scatter_fn_general(om, omega0, model.c_tau)
        except quasistatic.PoleError:
            s_hat = complex(math.nan, math.nan)
        rows.append([om, s_tilde.real, s_tilde.imag, s_hat.real, s_hat.imag])
    return CsvTable(
        ["omega", "re_s_tilde", "im_s_tilde", "re_s_hat", "im_s_hat"],
        ["-"] * 5,
        rows,
        meta=[f"delta: {_format_cell(delta)}"],
    )


def _cmd_amplitude(cfg):
    delta = float(cfg["delta"])
    tau = _complex_value(cfg.get("tau"), delta ** -2)
    omega = float(cfg["omega"])
    phi = float(cfg.get("phi", 0.0))
    count = int(cfg.get("theta_count", 37))
    config = mie.ScatterConfig(delta, tau, omega)
    table = mie.mie_coefficients(config, _incident(cfg, omega))
    rows = []
    for theta in np.linspace(0.0, math.pi, count):
        xh = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])
        ff = mie.far_field(table, xh)
        rows.append([theta, ff[0].real, ff[0].imag, ff[1].real, ff[1].imag, ff[2].real, ff[2].imag])
    return CsvTable(
        ["theta", "re_E1", "im_E1", "re_E2", "im_E2", "re_E3", "im_E3"],
        ["rad"] + ["-"] * 6,
        rows,
        meta=[f"phi: {_format_cell(phi)}"],
    )


def _cmd_moments(cfg):
    delta = float(cfg["delta"])
    model = _model(cfg)
    omega = float(cfg["omega"])
    w = _incident(cfg, omega)
    pair = quasistatic.dipole_approximation(w, omega, delta, model)
    rm = quasistatic.resonant_moments(w, omega, delta, model)
    row = []
    for v in pair.p:
        row.extend([v.real, v.imag])
    for v in pair.m:
        row.extend([v.real, v.imag])
    row.extend([
        float(np.linalg.norm(rm.m1_hat)),
        float(np.linalg.norm(rm.m2_hat)),
        float(np.linalg.norm(rm.q0_hat)),
    ])
    cols = ["re_p1", "im_p1", "re_p2", "im_p2", "re_p3", "im_p3",
            "re_m1", "im_m1", "re_m2", "im_m2", "re_m3", "im_m3",
            "abs_M1hat", "abs_M2hat", "abs_Q0hat"]
    return CsvTable(cols, ["-"] * len(cols), [row])


def _cmd_units(cfg):
    radius = float(cfg["radius_nm"])
    wavelength = float(cfg["wavelength_nm"])
    eps = _complex_value(cfg.get("epsilon_r"), 16.0)
    delta_omega, tau, indicator = to_dimensionless(radius, wavelength, eps)
    rows = [[radius, wavelength, delta_omega, tau.real, tau.imag, indicator]]
    return CsvTable(
        ["radius_nm", "wavelength_nm", "delta_omega", "re_tau", "im_tau", "resonance_indicator"],
        ["nm", "nm", "-", "-", "-", "-"],
        rows,
    )


_HANDLERS = {
    "bessel-zeros": (_cmd_bessel_zeros, "order,s,zero"),
    "spectrum": (_cmd_spectrum, "rank,lambda,k,family_n,s,multiplicity"),
    "resonance": (_cmd_resonance, ",".join(_SWEEP_COLUMNS)),
    "resonance-sweep": (_cmd_resonance_sweep, ",".join(_SWEEP_COLUMNS)),
    "mie": (_cmd_mie, "n,m,re_gamma,im_gamma,re_eta,im_eta"),
    "cross-sections": (_cmd_cross_sections, "omega,Qs,Qext,Qabs,n_max_used,converged"),
    "scatter-functions": (_cmd_scatter_functions, "omega,re_s_tilde,im_s_tilde,re_s_hat,im_s_hat"),
    "amplitude": (_cmd_amplitude, "theta,re_E1,im_E1,re_E2,im_E2,re_E3,im_E3"),
    "moments": (_cmd_moments, "re_p*,im_p*,re_m*,im_m*,abs_M1hat,abs_M2hat,abs_Q0hat"),
    "units": (_cmd_units, "radius_nm,wavelength_nm,delta_omega,re_tau,im_tau,resonance_indicator"),
}


def run_config(cfg: dict) -> CsvTable:
    """Dispatch a configuration dictionary to its subcommand handler."""
    command = cfg.get("command")
    if command not in _HANDLERS:
        raise ValueError(f"unknown command {command!r}")
    return _HANDLERS[command][0](cfg)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dieres",
        description="dielectric subwavelength resonances and Mie scattering for high-index spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file; flags override its entries")
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    def add(name, *args_spec):
        _, schema = _HANDLERS[name]
        p = sub.add_parser(name, parents=[common], help=f"emit columns: {schema}",
                           description=f"column schema: {schema}")
        for flag, kwargs in args_spec:
            p.add_argument(flag, **kwargs)
        return p

    add("bessel-zeros",
        ("--order", dict(type=int, default=None)),
        ("--count", dict(type=int, default=None)))
    add("spectrum", ("--count", dict(type=int, default=None)))
    res_flags = [
        ("--family", dict(choices=("TE", "TM"), default=None)),
        ("--n", dict(type=int, default=None)),
        ("--s", dict(type=int, default=None)),
        ("--c-tau", dict(type=float, nargs=2, metavar=("RE", "IM"), default=None, dest="c_tau")),
        ("--laurent", dict(type=float, nargs="*", default=None)),
    ]
    add("resonance", ("--delta", dict(type=float, default=None)),
        ("--tol", dict(type=float, default=None)), *res_flags)
    add("resonance-sweep",
        ("--delta-min", dict(type=float, default=None, dest="delta_min")),
        ("--delta-max", dict(type=float, default=None, dest="delta_max")),
        ("--delta-count", dict(type=int, default=None, dest="delta_count")),
        ("--deltas", dict(type=float, nargs="*", default=None)),
        *res_flags)
    wave_flags = [
        ("--direction", dict(type=float, nargs=3, default=None)),
        ("--polarization", dict(type=float, nargs=3, default=None)),
    ]
    add("mie",
        ("--delta", dict(type=float, default=None)),
        ("--tau", dict(type=float, nargs=2, metavar=("RE", "IM"), default=None)),
        ("--omega", dict(type=float, default=None)),
        ("--omega-im", dict(type=float, default=None, dest="omega_im")),
        ("--n-max", dict(type=int, default=None, dest="n_max")),
        *wave_flags)
    grid_flags = [
        ("--omega-min", dict(type=float, default=None, dest="omega_min")),
        ("--omega-max", dict(type=float, default=None, dest="omega_max")),
        ("--omega-count", dict(type=int, default=None, dest="omega_count")),
    ]
    add("cross-sections",
        ("--delta", dict(type=float, default=None)),
        ("--tau", dict(type=float, nargs=2, metavar=("RE", "IM"), default=None)),
        *grid_flags, *wave_flags)
    add("scatter-functions",
        ("--delta", dict(type=float, default=None)),
        ("--c-tau", dict(type=float, nargs=2, metavar=("RE", "IM"), default=None, dest="c_tau")),
        ("--laurent", dict(type=float, nargs="*", default=None)),
        *grid_flags)
    add("amplitude",
        ("--delta", dict(type=float, default=None)),
        ("--tau", dict(type=float, nargs=2, metavar=("RE", "IM"), default=None)),
        ("--omega", dict(type=float, default=None)),
        ("--phi", dict(type=float, default=None)),
        ("--theta-count", dict(type=int, default=None, dest="theta_count")),
        *wave_flags)
    add("moments",
        ("--delta", dict(type=float, default=None)),
        ("--omega", dict(type=float, default=None)),
        ("--c-tau", dict(type=float, nargs=2, metavar=("RE", "IM"), default=None, dest="c_tau")),
        ("--laurent", dict(type=float, nargs="*", default=None)),
        *wave_flags)
    add("units",
        ("--radius-nm", dict(type=float, default=None, dest="radius_nm")),
        ("--wavelength-nm", dict(type=float, default=None, dest="wavelength_nm")),
        ("--epsilon-r", dict(type=float, nargs=2, metavar=("RE", "IM"), default=None, dest="epsilon_r")))
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
