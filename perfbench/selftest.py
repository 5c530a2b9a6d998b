"""Self-test of the dieres benchmark.

    python3 perfbench/selftest.py

Checks that
- the same seed gives identical inputs and another seed different ones;
- two traced runs with the same seed give identical inputs and identical
  count metrics;
- traced and untraced passes write byte-identical CLI output;
- the metric and workload names agree with BENCHMARK.json;
- the benchmark exits non-zero, printing no result, where there are no
  dieres sources.

Takes about two minutes; writes only under .perfbench_out/.
"""

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, make_rng, params_digest  # noqa: E402

COUNT_SUFFIXES = (".calls", ".elements", ".entries", ".orders", ".muller_iterations",
                  ".denominator_evals", ".quad_nodes", ".attempts", ".points",
                  ".resonance_errors")
COUNT_NAMES = ("cli.rows", "cli.bytes")


def require(condition, message):
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def traced_run(workload, seed):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    require(proc.returncode == 0, f"{workload}: traced run exits 0")
    digest = next(line.split()[-1] for line in lines if line.startswith("inputs_sha256"))
    return digest, json.loads(lines[-1])


def main():
    for name, workload in WORKLOADS.items():
        a = params_digest([workload.deck(make_rng(7)), workload.deck(make_rng(7))])
        b = params_digest([workload.deck(make_rng(7)), workload.deck(make_rng(7))])
        c = params_digest([workload.deck(make_rng(8)), workload.deck(make_rng(8))])
        require(a == b and a != c, f"{name}: inputs depend on the seed alone")

    for name in WORKLOADS:
        first_digest, first = traced_run(name, 5)
        second_digest, second = traced_run(name, 5)
        require(first["correct"] and second["correct"], f"{name}: traced runs pass their checks")
        require(first_digest == second_digest, f"{name}: same seed, same inputs")
        counts = [k for k in first["metrics"] if k.endswith(COUNT_SUFFIXES) or k in COUNT_NAMES]
        differ = [k for k in counts if first["metrics"][k] != second["metrics"][k]]
        require(not differ, f"{name}: {len(counts)} count metrics identical across runs {differ}")
        if name == "root-track":
            require(first["metrics"]["specfun.angular.calls"]["value"] == 0,
                    "root-track: no angular-table calls")

    xs = WORKLOADS["xs-sweep"]
    deck = [p for p in xs.deck(make_rng(3)) if p["size"] <= 8]
    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        plain = run.run_pass(xs, deck, str(workdir))
        tracer = Tracer()
        tracer.install()
        try:
            traced = run.run_pass(xs, deck, str(workdir), tracer)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    require(all(not o.failures for o in plain + traced) and tracer.spans,
            f"xs-sweep: {len(deck)} small requests pass traced and untraced")
    require([o.digest for o in plain] == [o.digest for o in traced],
            "xs-sweep: traced and untraced CLI output is byte-identical")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    require(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
            "BENCHMARK.json lists the workloads run.py knows")
    require([(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END,
            "BENCHMARK.json end_to_end matches run.END_TO_END")
    require([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == [(f"{layer}.{name}", unit, better) for layer, name, unit, better in PER_LAYER],
            "BENCHMARK.json per_layer matches tracer.PER_LAYER")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "root-track",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    require(proc.returncode != 0 and not proc.stdout.strip(),
            "without dieres sources the benchmark exits non-zero and prints no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
