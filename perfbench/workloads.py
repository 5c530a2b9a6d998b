"""Seeded workloads of the dieres benchmark.

A workload turns a seed into decks of requests.  A deck has a fixed
composition (entry points and problem sizes); the seed draws the physical
parameters, the incidence directions and the order of the deck.  A request is
one call into the workload's top entry point, made with inputs prepared
beforehand, so that the timed call sees only the generated inputs.

Every workload checks its outputs in two steps: ``check`` runs right after a
request, outside the timed call, and needs only numpy; ``oracle_check`` runs
after the timed part of the run against the scipy references in ``oracle``.
"""

import hashlib
import json
import math
import os
import random

import numpy as np

import dieres
import dieres.cli


def params_digest(decks):
    """sha256 of the generated inputs, for the same-seed self-test."""
    text = json.dumps(decks, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _unit(rng):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-3:
            return [c / norm for c in v]


def _direction_pair(rng, random_direction):
    """Incidence direction and a real polarization orthogonal to it."""
    if not random_direction:
        return [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]
    d = _unit(rng)
    e = _unit(rng)
    dot = sum(a * b for a, b in zip(d, e))
    e = [b - dot * a for a, b in zip(d, e)]
    norm = math.sqrt(sum(c * c for c in e))
    return d, [c / norm for c in e]


def _cloud(seed, count):
    """Unit vectors drawn from a per-request seed (kept out of the params so
    that a run does not hold every point of every deck)."""
    v = np.random.default_rng(seed).normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _sphere(rng, lossy, interior):
    """Sphere (delta, re_tau, im_tau) and the frequency at which the interior
    argument |delta omega sqrt(1 + tau)| equals ``interior``."""
    delta = rng.uniform(0.05, 0.3)
    re_tau = rng.uniform(10.0, 500.0)
    im_tau = re_tau * rng.uniform(0.001, 0.05) if lossy else 0.0
    scale = abs(delta * complex(np.sqrt(complex(1 + re_tau, im_tau))))
    return delta, re_tau, im_tau, interior / scale


def _interior_scale(p):
    return abs(p["delta"] * complex(np.sqrt(complex(1 + p["re_tau"], p["im_tau"]))))


def _wave(p, omega):
    return dieres.IncidentWave(np.array(p["direction"]), np.array(p["polarization"]), omega)


def _finite(a):
    return bool(np.all(np.isfinite(np.asarray(a, dtype=complex).view(float))))


def _digest_arrays(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=complex)).tobytes())
    return h.hexdigest()


def _radial_sample(p, omega, u):
    """Radial-factor comparison against the scipy oracle at one order."""
    from oracle import radial_factors

    tau = complex(p["re_tau"], p["im_tau"])
    cfg = dieres.ScatterConfig(p["delta"], tau, omega)
    n = 1 + int(u * cfg.n_max)
    table = dieres.MieTable(cfg, _wave(p, omega))
    got = (table.radial_te(n), table.radial_tm(n))
    failures = []
    for family, value, (ref, cond) in zip(("TE", "TM"), got, radial_factors(n, p["delta"], tau, omega)):
        if not abs(value - ref) <= 1e-12 * max(cond, 1.0) * abs(ref):
            failures.append(f"radial factor {family} n={n} omega={omega!r}: "
                            f"{value!r} vs scipy {ref!r} (cond {cond:.1e})")
    return failures


class Workload:
    """Interface shared by the three workloads."""

    name = ""

    def deck(self, rng):
        """Parameters of the requests of one deck (JSON-serialisable dicts)."""
        raise NotImplementedError

    def prepare(self, p, workdir):
        """Build the inputs of one request: (call to time, inputs for check)."""
        raise NotImplementedError

    def check(self, p, result, inputs):
        """(failures, digest, record) of one completed request; the digest
        identifies the output and the record feeds ``oracle_check``."""
        raise NotImplementedError

    def oracle_check(self, p, record):
        """Failures found by the scipy references."""
        return []

    def setup_requests(self, deck):
        """The workload's first call of each entry point: the smallest
        request of each kind in the deck, in order of first appearance."""
        chosen = {}
        for p in deck:
            best = chosen.get(p["kind"])
            if best is None or p["size"] < best["size"]:
                chosen[p["kind"]] = p
        return list(chosen.values())


# ---------------------------------------------------------------------------
# xs-sweep: in-process CLI requests, each writing its output to a file
# ---------------------------------------------------------------------------

XS_COLUMNS = {
    "cross-sections": ["omega", "Qs", "Qext", "Qabs", "n_max_used", "converged"],
    "mie": ["n", "m", "re_gamma", "im_gamma", "re_eta", "im_eta"],
    "amplitude": ["theta", "re_E1", "im_E1", "re_E2", "im_E2", "re_E3", "im_E3"],
    "scatter-functions": ["omega", "re_s_tilde", "im_s_tilde", "re_s_hat", "im_s_hat"],
}


class XsSweep(Workload):
    """Cross-section spectra and Mie tables through ``dieres.cli.main``.

    Per deck: 16 ``cross-sections`` grids whose sizes span 4 to 126 points,
    most of them small, 3 ``mie``, 2 ``amplitude`` and 3 ``scatter-functions``
    requests.  A third of the spheres are lossy and 5 of the 21 incidences are
    seeded random directions; the rest use the default direction.  Which slots
    are lossy or randomly lit is fixed, because a random incidence makes every
    (n, m) coefficient nonzero and so costs more.  Grids cover the
    interior size |delta omega sqrt(1 + tau)| over 0.4 inside 3.05..3.7,
    around the quasi-static magnetic resonance at pi, so every point has the
    same truncation order (n_max = 12) and a deck costs the same for any seed.
    """

    name = "xs-sweep"
    # Nine equal small grids hold the median request and five equal mid-size
    # grids the p75 tail of a run of three or four decks, so that run-to-run
    # noise moves those order statistics within one request size rather than
    # across sizes.
    GRID_SIZES = (4, 4, 4, 4, 4, 4, 4, 4, 4, 10, 10, 10, 10, 10, 24, 126)
    THETA_COUNTS = (13, 25)
    SCATTER_COUNTS = (50, 200, 800)
    RANDOM_DIRECTION_SLOTS = (13, 14, 15, 17, 20)

    def deck(self, rng):
        kinds = (["cross-sections"] * len(self.GRID_SIZES) + ["mie"] * 3
                 + ["amplitude"] * len(self.THETA_COUNTS))
        sizes = list(self.GRID_SIZES) + [1, 1, 1] + list(self.THETA_COUNTS)
        deck = []
        for slot, (kind, size) in enumerate(zip(kinds, sizes)):
            is_lossy, is_random = slot % 3 == 1, slot in self.RANDOM_DIRECTION_SLOTS
            centre = rng.uniform(3.25, 3.5) if kind == "cross-sections" else rng.uniform(3.05, 3.95)
            delta, re_tau, im_tau, omega = _sphere(rng, is_lossy, centre)
            d, e0 = _direction_pair(rng, is_random)
            p = {"kind": kind, "size": size, "delta": delta, "re_tau": re_tau, "im_tau": im_tau,
                 "direction": d, "polarization": e0, "sample": rng.random()}
            if kind == "cross-sections":
                scale = _interior_scale(p)
                p.update(omega_min=(centre - 0.2) / scale, omega_max=(centre + 0.2) / scale,
                         sample_row=rng.randrange(size))
            else:
                p["omega"] = omega
            if kind == "amplitude":
                p["phi"] = rng.uniform(0.0, 2 * math.pi)
            deck.append(p)
        for count in self.SCATTER_COUNTS:
            c_tau = rng.uniform(0.5, 3.0)
            omega0 = math.pi / math.sqrt(c_tau)
            deck.append({"kind": "scatter-functions", "size": count,
                         "delta": rng.uniform(0.05, 0.3), "c_tau": c_tau,
                         "laurent": [rng.uniform(-1.0, 1.0)] if rng.random() < 0.5 else [],
                         "omega_min": omega0 * rng.uniform(0.85, 0.95),
                         "omega_max": omega0 * rng.uniform(1.05, 1.15),
                         "sample_row": rng.randrange(count)})
        rng.shuffle(deck)
        return deck

    def argv(self, p, out):
        kind = p["kind"]
        argv = [kind, "--delta", repr(p["delta"])]
        if kind == "scatter-functions":
            argv += ["--c-tau", repr(p["c_tau"]), "0.0"]
            if p["laurent"]:
                argv += ["--laurent", *map(repr, p["laurent"])]
        else:
            argv += ["--tau", repr(p["re_tau"]), repr(p["im_tau"])]
            if p["direction"] != [0.0, 0.0, 1.0]:
                argv += ["--direction", *map(repr, p["direction"]),
                         "--polarization", *map(repr, p["polarization"])]
        if kind in ("cross-sections", "scatter-functions"):
            argv += ["--omega-min", repr(p["omega_min"]), "--omega-max", repr(p["omega_max"]),
                     "--omega-count", str(p["size"])]
        else:
            argv += ["--omega", repr(p["omega"])]
        if kind == "amplitude":
            argv += ["--phi", repr(p["phi"]), "--theta-count", str(p["size"])]
        return argv + ["--out", out]

    def prepare(self, p, workdir):
        out = os.path.join(workdir, "request.csv")
        argv = self.argv(p, out)

        def call():
            code = dieres.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"dieres {p['kind']} exited with {code}")
            return out

        return call, None

    def check(self, p, out, inputs):
        with open(out) as fh:
            text = fh.read()
        os.remove(out)
        digest = hashlib.sha256(text.encode()).hexdigest()
        table = dieres.cli.parse_csv(text)
        kind = p["kind"]
        failures = []
        if table.columns != XS_COLUMNS[kind]:
            return [f"{kind}: columns {table.columns}"], digest, None
        rows = np.array(table.rows, dtype=float)
        if kind != "mie" and len(rows) != p["size"]:
            return [f"{kind}: {len(rows)} rows, expected {p['size']}"], digest, None
        record = None
        if kind == "cross-sections":
            grid = np.linspace(p["omega_min"], p["omega_max"], p["size"])
            if not np.array_equal(rows[:, 0], grid):
                failures.append("cross-sections: omega column differs from the requested grid")
            qs, qext, qabs = rows[:, 1], rows[:, 2], rows[:, 3]
            if not (np.all(np.isfinite(rows)) and np.all(qs > 0)):
                failures.append("cross-sections: non-finite or non-positive Qs")
            elif p["im_tau"] == 0.0:
                worst = float(np.max(np.abs(qext - qs) / qs))
                if worst > 1e-8:
                    failures.append(f"cross-sections: lossless |Qext-Qs|/Qs = {worst:.2e} > 1e-8")
            elif np.any(qabs < -1e-10 * np.abs(qext)):
                failures.append(f"cross-sections: lossy Qabs = {float(np.min(qabs)):.3e} < 0")
            record = float(rows[p["sample_row"], 0])
        elif kind == "mie":
            n_max = int(table.meta[0].rsplit(":", 1)[1])
            if len(rows) != n_max * (n_max + 2) or not np.all(np.isfinite(rows)):
                failures.append(f"mie: {len(rows)} finite rows expected {n_max * (n_max + 2)}")
            record = p["omega"]
        elif kind == "amplitude":
            theta = np.linspace(0.0, math.pi, p["size"])
            xh = np.stack([np.sin(theta) * math.cos(p["phi"]), np.sin(theta) * math.sin(p["phi"]),
                           np.cos(theta)], axis=-1)
            amp = rows[:, 1::2] + 1j * rows[:, 2::2]
            radial = np.abs(np.sum(xh * amp, axis=-1))
            if not _finite(amp) or np.max(radial) > 1e-12 * np.max(np.abs(amp)):
                failures.append("amplitude: non-finite or non-tangential far field")
            record = p["omega"]
        else:
            grid = np.linspace(p["omega_min"], p["omega_max"], p["size"])
            if not np.array_equal(rows[:, 0], grid):
                failures.append("scatter-functions: omega column differs from the requested grid")
            if not np.all(np.isfinite(rows)):
                failures.append("scatter-functions: non-finite value off the poles")
            record = rows[p["sample_row"]].tolist()
        return failures, digest, record

    def oracle_check(self, p, record):
        if record is None:
            return []
        if p["kind"] != "scatter-functions":
            return _radial_sample(p, record, p["sample"])
        from oracle import scatter_fn

        omega, re_t, im_t, re_h, im_h = record
        tau = p["c_tau"] / p["delta"] ** 2
        for i, c in enumerate(p["laurent"], start=-1):
            tau += c * p["delta"] ** i
        ref, cond = scatter_fn(omega, p["delta"], tau)
        omega0 = math.pi / math.sqrt(p["c_tau"])
        ref_hat = -8 / math.pi ** 2 * omega ** 2 * omega0 * p["c_tau"] / (omega - omega0)
        failures = []
        if not abs(complex(re_t, im_t) - ref) <= 1e-12 * max(cond, 1.0) * abs(ref):
            failures.append(f"scatter-functions: s_tilde({omega!r}) = {complex(re_t, im_t)!r} "
                            f"vs scipy {ref!r} (cond {cond:.1e})")
        if not abs(complex(re_h, im_h) - ref_hat) <= 1e-10 * abs(ref_hat):
            failures.append(f"scatter-functions: s_hat({omega!r}) = {complex(re_h, im_h)!r} "
                            f"vs closed form {ref_hat!r}")
        return failures


# ---------------------------------------------------------------------------
# root-track: resonance searches and radius sweeps
# ---------------------------------------------------------------------------

# leading positive zeros of j_0..j_3, only used to keep radii quasi-static
_APPROX_ZEROS = {0: (3.1416, 6.2832), 1: (4.4934, 7.7253), 2: (5.7635, 9.0950), 3: (6.9879, 10.4171)}


class RootTrack(Workload):
    """One ``sweep_resonance`` (6 radii) and two ``find_resonance`` calls for
    every (family, n, s) with TE/TM, n = 1..3, s = 1..2: 36 requests per deck.
    With two single roots per sweep the median request is a single root
    rather than the gap between the two request sizes.

    Contrast models are real or complex ``c_tau`` (half each), two thirds
    with one or two Laurent terms;
    radii keep the exterior size delta*|omega| at or below about 0.35.
    """

    name = "root-track"
    SWEEP_POINTS = 6

    def deck(self, rng):
        deck = []
        for family in ("TE", "TM"):
            for n in (1, 2, 3):
                for s in (1, 2):
                    for kind in ("sweep_resonance", "find_resonance", "find_resonance"):
                        re_c = rng.uniform(0.5, 3.0)
                        im_c = re_c * rng.uniform(0.01, 0.2) if rng.random() < 0.5 else 0.0
                        laurent = [rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0)][:rng.randrange(3)]
                        k = _APPROX_ZEROS[n - 1 if family == "TE" else n][s - 1]
                        hi = 0.35 * math.sqrt(abs(complex(re_c, im_c))) / k
                        lo = hi * rng.uniform(0.15, 0.4)
                        p = {"kind": kind, "family": family, "n": n, "s": s,
                             "c_tau": [re_c, im_c], "laurent": laurent}
                        if kind == "sweep_resonance":
                            p["size"] = self.SWEEP_POINTS
                            p["deltas"] = np.linspace(lo, hi, self.SWEEP_POINTS).tolist()
                        else:
                            p["size"] = 1
                            p["delta"] = rng.uniform(lo, hi)
                        deck.append(p)
        rng.shuffle(deck)
        return deck

    def prepare(self, p, workdir):
        model = dieres.ContrastModel(complex(*p["c_tau"]), tuple(p["laurent"]))
        if p["kind"] == "sweep_resonance":
            deltas = p["deltas"]
            return lambda: dieres.sweep_resonance(p["family"], p["n"], p["s"], deltas, model), None
        return lambda: dieres.find_resonance(p["family"], p["n"], p["s"], p["delta"], model), None

    def check(self, p, result, inputs):
        if p["kind"] == "sweep_resonance":
            points = [(pt.delta, pt.root, pt.error) for pt in result]
            if len(points) != len(p["deltas"]):
                return [f"sweep returned {len(points)} points"], repr(points), []
        else:
            points = [(p["delta"], result, None)]
        failures, record = [], []
        for delta, root, error in points:
            if root is None:
                failures.append(f"{p['family']} n={p['n']} s={p['s']} delta={delta!r}: {error}")
                continue
            w = root.omega
            if not (w.real > 0 and w.imag < 0):
                failures.append(f"root {w!r} at delta={delta!r} is not in the fourth quadrant")
            record.append([delta, w.real, w.imag, root.residual])
        digest = repr([(d, r.omega, r.residual, r.iterations) if r else e for d, r, e in points])
        return failures, digest, record

    def oracle_check(self, p, record):
        from oracle import denominators

        c_tau = complex(*p["c_tau"])
        failures = []
        for delta, re_omega, im_omega, residual in record:
            omega = complex(re_omega, im_omega)
            tau = c_tau / delta ** 2
            for i, c in enumerate(p["laurent"], start=-1):
                tau += c * delta ** i
            d_te, d_tm, s_te, s_tm = denominators(p["n"], delta, tau, omega)
            d, scale = (d_te, s_te) if p["family"] == "TE" else (d_tm, s_tm)
            if abs(d) > 1e-8 * scale:
                failures.append(f"scipy |D_{p['family']}| / scale = {abs(d) / scale:.1e} at root "
                                f"{omega!r} (delta={delta!r})")
            if not residual <= 1e-8 * scale:
                failures.append(f"reported residual {residual:.1e} exceeds 1e-8 x scale {scale:.1e}")
        return failures


# ---------------------------------------------------------------------------
# field-maps: few calls on large arrays
# ---------------------------------------------------------------------------

class FieldMaps(Workload):
    """Far fields on sphere quadratures up to 64x128, scattered fields on
    point clouds, partial plane-wave expansions, resonant moments near the
    pole, and Cartesian moments on ball quadratures followed by the
    moment-based amplitude: 17 requests per deck.

    Spheres sit at interior size 3.05..3.6, so every Mie table has n_max = 12.
    The far field on 48x96 nodes and the 128-point cloud use random incidence;
    the other tables use the default direction.
    """

    name = "field-maps"
    FAR_GRIDS = ((16, 32), (24, 48), (32, 64), (48, 96), (64, 128))
    CLOUD_POINTS = (64, 128, 256, 512)
    EXPANSION_ORDERS = (4, 6, 8)
    BALL_GRIDS = ((8, 8, 16), (12, 16, 32), (16, 24, 48))
    EXPANSION_POINTS = 128
    RANDOM_DIRECTION_SLOTS = (3, 6)
    FAR_PROBES = 4
    PROBE_RADIUS = 1e5

    def deck(self, rng):
        table_kinds = [("far_field", g[0] * g[1], list(g)) for g in self.FAR_GRIDS]
        table_kinds += [("scattered_field", n, n) for n in self.CLOUD_POINTS]
        deck = []
        for slot, (kind, size, shape) in enumerate(table_kinds):
            is_lossy, is_random = slot % 3 == 0, slot in self.RANDOM_DIRECTION_SLOTS
            delta, re_tau, im_tau, omega = _sphere(rng, is_lossy, rng.uniform(3.05, 3.6))
            d, e0 = _direction_pair(rng, is_random)
            p = {"kind": kind, "size": size, "shape": shape, "delta": delta, "re_tau": re_tau,
                 "im_tau": im_tau, "omega": omega, "direction": d, "polarization": e0}
            if kind == "scattered_field":
                p["cloud_seed"] = rng.getrandbits(63)
            deck.append(p)
        for order in self.EXPANSION_ORDERS:
            d, e0 = _direction_pair(rng, True)
            omega = rng.uniform(1.0, 5.0)
            deck.append({"kind": "jacobi_anger_partial", "size": order, "omega": omega,
                         "direction": d, "polarization": e0,
                         "cloud_seed": rng.getrandbits(63)})
        for is_random in (False, True):
            d, e0 = _direction_pair(rng, is_random)
            c_tau = rng.uniform(0.5, 2.0)
            eps = rng.uniform(0.005, 0.05) * rng.choice((-1.0, 1.0))
            deck.append({"kind": "resonant_moments", "size": 1, "delta": rng.uniform(0.05, 0.2),
                         "c_tau": c_tau, "laurent": [rng.uniform(-0.5, 0.5)] if is_random else [],
                         "omega": math.pi / math.sqrt(c_tau) * (1 + eps),
                         "direction": d, "polarization": e0})
        for grid in self.BALL_GRIDS:
            delta, re_tau, im_tau, omega = _sphere(rng, False, rng.uniform(0.5, 3.0))
            deck.append({"kind": "moments", "size": grid[0] * grid[1] * grid[2], "grid": list(grid),
                         "delta": delta, "re_tau": re_tau, "omega": omega,
                         "c": [[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(3)],
                         "a": _unit(rng), "g": [[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(3)],
                         "xhat": [_unit(rng) for _ in range(8)]})
        rng.shuffle(deck)
        return deck

    def _table(self, p):
        cfg = dieres.ScatterConfig(p["delta"], complex(p["re_tau"], p["im_tau"]), p["omega"])
        return dieres.mie_coefficients(cfg, _wave(p, p["omega"]))

    def prepare(self, p, workdir):
        kind = p["kind"]
        if kind == "far_field":
            table = self._table(p)
            pts = dieres.sphere_quadrature(*p["shape"]).points
            return lambda: dieres.far_field(table, pts), (table, pts)
        if kind == "scattered_field":
            table = self._table(p)
            dirs = _cloud(p["cloud_seed"], p["size"])
            radii = p["delta"] * np.random.default_rng(p["cloud_seed"] + 1).uniform(1.2, 10.0, p["size"])
            radii[-self.FAR_PROBES:] = self.PROBE_RADIUS
            pts = dirs * radii[:, None]
            return lambda: dieres.scattered_field(table, pts), (table, dirs[-self.FAR_PROBES:])
        if kind == "jacobi_anger_partial":
            w = _wave(p, p["omega"])
            scale = np.random.default_rng(p["cloud_seed"] + 1).random(self.EXPANSION_POINTS) / p["omega"]
            pts = _cloud(p["cloud_seed"], self.EXPANSION_POINTS) * scale[:, None]
            return lambda: dieres.jacobi_anger_partial(w, p["size"], pts), (w, pts)
        if kind == "resonant_moments":
            w = _wave(p, p["omega"])
            model = dieres.ContrastModel(p["c_tau"], tuple(p["laurent"]))
            return lambda: dieres.resonant_moments(w, p["omega"], p["delta"], model), None
        quad = dieres.ball_quadrature(*p["grid"])
        c = np.array([complex(*v) for v in p["c"]])
        a = np.array(p["a"])
        g = np.array([complex(*v) for v in p["g"]])
        field = dieres.DecomposedField(lambda y: np.outer(y @ a, c),
                                       lambda y: np.broadcast_to(g, y.shape).copy())
        xhat = np.array(p["xhat"])

        def call():
            moments = [dieres.magnetic_moment(1, field, quad), dieres.magnetic_moment(2, field, quad),
                       dieres.electric_moment(0, field, quad), dieres.electric_moment(1, field, quad)]
            amps = [dieres.amplitude_from_moments(moments, p["delta"], p["re_tau"], p["omega"], x)
                    for x in xhat]
            return moments, np.array(amps)

        return call, (c, a, g, xhat)

    def check(self, p, result, inputs):
        kind = p["kind"]
        failures = []
        if kind in ("far_field", "scattered_field", "jacobi_anger_partial"):
            digest = _digest_arrays(result)
            if not _finite(result):
                return [f"{kind}: non-finite values"], digest, None
        if kind == "far_field":
            table, pts = inputs
            quad = dieres.sphere_quadrature(*p["shape"])
            radial = np.abs(np.sum(pts * result, axis=-1))
            if np.max(radial) > 1e-12 * np.max(np.abs(result)):
                failures.append("far_field: amplitude is not tangential")
            qs = dieres.cross_sections(table).Qs
            numeric = float(np.sum(quad.weights * np.sum(np.abs(result) ** 2, axis=-1)))
            if abs(numeric - qs) > 1e-8 * qs:
                failures.append(f"far_field: quadrature of |F|^2 = {numeric!r} vs Qs = {qs!r}")
        elif kind == "scattered_field":
            table, dirs = inputs
            probes = result[-self.FAR_PROBES:]
            omega = table.config.omega
            scaled = self.PROBE_RADIUS * np.exp(-1j * omega * self.PROBE_RADIUS) * probes
            ref = dieres.far_field(table, dirs)
            err = np.max(np.linalg.norm(scaled - ref, axis=-1)) / np.max(np.linalg.norm(ref, axis=-1))
            if err > 1e-3:
                failures.append(f"scattered_field: far probes differ from far_field by {err:.1e}")
        elif kind == "jacobi_anger_partial":
            w, pts = inputs
            exact = np.exp(1j * w.omega * (pts @ w.direction))[:, None] * w.polarization
            err = float(np.max(np.abs(result - exact)))
            # truncation bound for omega |x| <= 1: the first omitted order dominates
            bound = 2.0 / math.factorial(p["size"] + 1)
            if err > bound:
                failures.append(f"jacobi_anger_partial N={p['size']}: error {err:.1e} > {bound:.1e}")
        elif kind == "resonant_moments":
            moments = (result.q0_hat, result.m1_hat, result.m2_hat)
            digest = _digest_arrays(*moments)
            if not all(_finite(v) for v in moments):
                return ["resonant_moments: non-finite moments"], digest, None
            m1, q0 = np.linalg.norm(result.m1_hat), np.linalg.norm(result.q0_hat)
            if not (m1 > 0 and q0 <= p["delta"] ** 2 * m1):
                failures.append(f"resonant_moments: |Q0|/|M1| = {q0 / m1:.1e} > delta^2")
        else:
            moments, amps = result
            c, a, g, xhat = inputs
            digest = _digest_arrays(amps, *(m.entries for m in moments))
            expected = [np.zeros(3), 2 * (4 * math.pi / 15) * np.outer(c, a),
                        (4 * math.pi / 3) * g, np.zeros((3, 3))]
            for m, ref in zip(moments, expected):
                if np.max(np.abs(m.entries - ref)) > 1e-12 * (1 + np.max(np.abs(ref))):
                    failures.append(f"moments: {m.kind} l={m.order_l} differs from its closed form")
            radial = np.abs(np.sum(xhat * amps, axis=-1))
            if not _finite(amps) or np.max(radial) > 1e-12 * np.max(np.abs(amps)):
                failures.append("moments: amplitude is non-finite or not tangential")
        return failures, digest, None


WORKLOADS = {w.name: w for w in (XsSweep(), RootTrack(), FieldMaps())}


def make_rng(seed):
    return random.Random(seed)
