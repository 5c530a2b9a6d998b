"""Run a fixed set of ``dieres`` commands in-process and record their output.

    python tools/cli_snapshot.py OUTDIR
    python tools/cli_snapshot.py --compare OUTDIR_A OUTDIR_B
    python tools/cli_snapshot.py -h | --help

Each command runs through ``dieres.cli.main``; its stdout, stderr and exit
code go to OUTDIR/<name>.stdout, <name>.stderr and <name>.code.  The set
covers every subcommand, CSV and JSON output, config files, failing
configurations, the per-point failure records of the grids and every
``--help``.  Snapshot two checkouts (with each one's ``src`` on PYTHONPATH)
and compare them with ``diff -r``, or with ``--compare``, which prints each
changed file with its largest relative cell change |b - a| / max(|a|, |b|)
and the two cells, and exits 1 when a file differs.

Exits 1 when a command's exit code differs from the one expected of it, so a
command meant to succeed that fails is caught.  ``-h`` or ``--help`` prints
this text; an OUTDIR that starts with ``-`` prints it to stderr and exits 2.
"""

import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile

WAVE = ["--direction", "0.3", "-0.4", "0.866", "--polarization", "0.8", "0.6", "0"]

# (name, argv, expected exit code)
COMMANDS = [
    ("bessel-zeros", ["bessel-zeros"], 0),
    ("bessel-zeros-json", ["bessel-zeros", "--order", "2", "--count", "4", "--format", "json"], 0),
    ("spectrum", ["spectrum", "--count", "6"], 0),
    ("spectrum-rows", ["spectrum", "--count", "40"], 0),
    ("resonance", ["resonance", "--delta", "0.1"], 0),
    ("resonance-json", ["resonance", "--family", "TM", "--n", "2", "--delta", "0.08", "--tol", "1e-11",
                        "--c-tau", "1.5", "0.1", "--laurent", "0.3", "--format", "json"], 0),
    ("resonance-sweep", ["resonance-sweep", "--delta-min", "0.05", "--delta-max", "0.2",
                         "--delta-count", "4"], 0),
    ("resonance-sweep-failed", ["resonance-sweep", "--deltas", "0.1", "2.0"], 0),
    ("resonance-sweep-deltas", ["resonance-sweep", "--deltas", "0.05", "0.1", "0.15", "--family", "TM",
                                "--s", "2", "--laurent", "-0.2", "0.1"], 0),
    ("mie", ["mie", "--delta", "0.15", "--omega", "3.3", "--n-max", "3"], 0),
    ("mie-json", ["mie", "--delta", "0.2", "--tau", "40", "1.5", "--omega", "2.2", "--omega-im", "-0.01",
                  *WAVE, "--format", "json"], 0),
    ("cross-sections", ["cross-sections", "--delta", "0.1", "--tau", "80", "0", "--omega-min", "1.0",
                        "--omega-max", "2.0", "--omega-count", "7"], 0),
    ("cross-sections-zero-omega", ["cross-sections", "--delta", "0.1", "--omega-min", "0", "--omega-max", "2",
                                   "--omega-count", "5"], 0),
    ("cross-sections-json", ["cross-sections", "--delta", "0.15", "--tau", "44", "0.5", "--omega-min", "2.9",
                             "--omega-max", "3.4", "--omega-count", "5", *WAVE, "--format", "json"], 0),
    ("cross-sections-nmax-runs", ["cross-sections", "--delta", "0.15", "--tau", "60", "2", "--omega-min", "0.8",
                                  "--omega-max", "6", "--omega-count", "9", *WAVE], 0),
    ("scatter-functions", ["scatter-functions", "--delta", "0.15", "--omega-min", "2.9",
                           "--omega-max", "3.4", "--omega-count", "11"], 0),
    ("scatter-functions-json", ["scatter-functions", "--delta", "0.1", "--c-tau", "2", "0", "--laurent", "0.4",
                                "--omega-min", "2.0", "--omega-max", "2.5", "--omega-count", "6",
                                "--format", "json"], 0),
    # the pole omega_0 = pi of c_tau = 1 as the grid's last point, a grid reaching |y| <= 1 (the series
    # pass) and a lossy contrast with a Laurent term
    ("scatter-functions-pole", ["scatter-functions", "--delta", "0.1", "--c-tau", "1", "0", "--omega-min", "3.0",
                                "--omega-max", repr(math.pi), "--omega-count", "5"], 0),
    ("scatter-functions-series", ["scatter-functions", "--delta", "0.1", "--omega-min", "0.1",
                                  "--omega-max", "3", "--omega-count", "30"], 0),
    ("scatter-functions-lossy", ["scatter-functions", "--delta", "0.12", "--c-tau", "1.5", "0.2",
                                 "--laurent", "0.3", "-0.1", "--omega-min", "1", "--omega-max", "5",
                                 "--omega-count", "40"], 0),
    ("amplitude", ["amplitude", "--delta", "0.15", "--tau", "44", "0", "--omega", "3.1", "--phi", "0.7",
                   "--theta-count", "9", *WAVE], 0),
    ("amplitude-json", ["amplitude", "--delta", "0.1", "--omega", "3.0", "--theta-count", "5",
                        "--format", "json"], 0),
    ("moments", ["moments", "--delta", "0.1", "--omega", "3.0"], 0),
    ("moments-json", ["moments", "--delta", "0.08", "--omega", "2.9", "--c-tau", "1.2", "0", "--laurent", "0.2",
                      *WAVE, "--format", "json"], 0),
    ("units", ["units", "--radius-nm", "75", "--wavelength-nm", "600", "--epsilon-r", "16", "0"], 0),
    ("units-json", ["units", "--radius-nm", "120", "--wavelength-nm", "900", "--epsilon-r", "12.5", "0.3",
                    "--format", "json"], 0),
    ("config", ["bessel-zeros", "--config", "{config}", "--order", "2"], 0),
    ("mie-config", ["mie", "--config", "{mie_config}", *WAVE], 0),
    ("error-negative-delta", ["resonance", "--delta", "-0.5"], 1),
    ("error-missing-omega", ["mie", "--delta", "0.1"], 1),
    ("error-short-grid", ["cross-sections", "--delta", "0.1", "--omega-min", "1", "--omega-max", "2",
                          "--omega-count", "1"], 1),
    ("error-units", ["units", "--radius-nm", "-1", "--wavelength-nm", "600"], 1),
    ("error-nan-omega", ["mie", "--delta", "0.1", "--omega", "nan"], 1),
    ("error-scatter-nan-omega", ["scatter-functions", "--delta", "0.1", "--omega-min", "nan",
                                 "--omega-max", "2"], 1),
    ("error-scatter-overflow", ["scatter-functions", "--delta", "0.1", "--c-tau", "1", "0.5",
                                "--omega-min", "1e5", "--omega-max", "2e5"], 1),
    ("error-nan-tau", ["cross-sections", "--delta", "0.1", "--tau", "nan", "0", "--omega-min", "1",
                       "--omega-max", "2"], 1),
    ("error-zero-direction", ["amplitude", "--delta", "0.1", "--omega", "3", "--direction", "0", "0", "0"], 1),
    ("error-nan-radius", ["units", "--radius-nm", "nan", "--wavelength-nm", "600"], 1),
    ("error-n-max-zero", ["mie", "--delta", "0.1", "--omega", "3", "--n-max", "0"], 1),
    ("error-bessel-zeros-count", ["bessel-zeros", "--count", "-2"], 1),
    ("error-bad-choice", ["resonance", "--delta", "0.1", "--family", "XX"], 2),
    ("help", ["--help"], 0),
    *((f"help-{name}", [name, "--help"], 0) for name in (
        "bessel-zeros", "spectrum", "resonance", "resonance-sweep", "mie", "cross-sections",
        "scatter-functions", "amplitude", "moments", "units")),
]

# the config files that commands name as {<key>}; the mie config gives tau as
# one JSON number, where the --tau flag always gives an [re, im] pair
CONFIGS = {
    "config": {"command": "bessel-zeros", "order": 1, "count": 3},
    "mie_config": {"command": "mie", "delta": 0.2, "tau": 40, "omega": 2.2, "n_max": 4},
}


def run(argv):
    """(stdout, stderr, exit code) of one in-process ``dieres`` call."""
    import dieres.cli  # here, so that --compare runs without the package

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = dieres.cli.main(argv)
        except SystemExit as exc:  # argparse exits on --help and on bad flags
            code = exc.code
    return out.getvalue(), err.getvalue(), code


# a number cell of CSV or JSON output; the group makes re.split keep it
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)\b)", re.IGNORECASE)


def largest_change(a, b):
    """(relative change, cell of a, cell of b) of the number cells of the texts a
    and b that change the most, or None when they differ in more than numbers."""
    parts_a, parts_b = NUMBER.split(a), NUMBER.split(b)
    if len(parts_a) != len(parts_b) or parts_a[::2] != parts_b[::2]:
        return None
    changes = [(0.0, "", "")]
    for x, y in zip(parts_a[1::2], parts_b[1::2]):
        u, v = float(x), float(y)
        if not (u == v or math.isnan(u) and math.isnan(v)):
            changes.append((abs(u - v) / max(abs(u), abs(v)) if math.isfinite(u - v) else math.inf, x, y))
    return max(changes, key=lambda change: change[0])


def _read(path):
    """The text of the file at path, or None when there is none."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return fh.read()


def compare(dir_a, dir_b) -> int:
    """Print each file that differs between two snapshot directories; 1 if any does."""
    names = sorted(set(os.listdir(dir_a)) | set(os.listdir(dir_b)))
    changed = 0
    for name in names:
        texts = [_read(os.path.join(directory, name)) for directory in (dir_a, dir_b)]
        if texts[0] == texts[1]:
            continue
        changed += 1
        if None in texts:
            print(f"{name}: only in {dir_a if texts[1] is None else dir_b}")
        elif (change := largest_change(*texts)) is None:
            print(f"{name}: differs in more than its numbers")
        else:
            print(f"{name}: largest relative cell change {change[0]:.3g} ({change[1]} -> {change[2]})")
    print(f"{changed} of {len(names)} files differ")
    return 1 if changed else 0


def main() -> int:
    if sys.argv[1:] in (["-h"], ["--help"]):
        print(__doc__)
        return 0
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        return compare(*sys.argv[2:])
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    outdir = sys.argv[1]
    os.makedirs(outdir, exist_ok=True)
    # argparse wraps help text to the terminal width; fix it so help is comparable
    os.environ["COLUMNS"] = "80"
    unexpected = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: os.path.join(tmp, f"{key}.json") for key in CONFIGS}
        for key, path in paths.items():
            with open(path, "w") as fh:
                json.dump(CONFIGS[key], fh)
        for name, command, expected in COMMANDS:
            stdout, stderr, code = run([a.format_map(paths) for a in command])
            for suffix, text in (("stdout", stdout), ("stderr", stderr), ("code", f"{code}\n")):
                with open(os.path.join(outdir, f"{name}.{suffix}"), "w") as fh:
                    fh.write(text)
            if code != expected:
                unexpected.append(f"{name}: exit code {code}, expected {expected}")
    for line in unexpected:
        print(line, file=sys.stderr)
    print(f"{len(COMMANDS)} commands written to {outdir}, {len(unexpected)} unexpected exit codes")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
