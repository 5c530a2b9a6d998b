"""Benchmark of the dieres library.

Three seeded workloads (``xs-sweep``, ``root-track``, ``field-maps``, see
``workloads.py`` and ``README.md``) run with one closed-loop client in one
process: the next request starts when the previous one has returned.

    python3 perfbench/run.py --workload xs-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

With ``--trace 0`` a run reports the end-to-end metrics.  It measures set-up in
fresh interpreters (``setup_probe.py``), then issues whole decks of requests
until ``--seconds`` have passed, checks every output, and reports request
throughput and latency, the failed fraction and the peak resident memory.
Times are rescaled to a fixed machine speed measured by a reference
computation run between requests (``speed.py``); the report gives the
unscaled figures beside them.

With ``--trace 1`` it runs one deck traced from a cold start, with wrappers
around every public ``dieres`` function (``tracer.py``), then alternates
untraced and traced warm passes over the same deck to measure the tracing
overhead; it reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, with the
machine and code context, and the spans of traced runs are written under
``.perfbench_out/`` at the root of the checkout.  Runs from the root of a
checkout that holds ``src/dieres``; the program is used from source.
"""

import argparse
import array
import hashlib
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("xs-sweep", "root-track", "field-maps")
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
PROBE_TIMEOUT_S = 25
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("request_ms_p50", "ms"),
    ("request_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description="dieres benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env.pop("DIERES_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def context(args, inherited_threads, inherited_blas):
    """Machine and code context recorded with every result."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "dieres").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
        "blas_env": {"inherited": inherited_blas,
                     "used": {k: os.environ.get(k) for k in BLAS_THREAD_VARS}},
        "DIERES_THREADS": {"inherited": inherited_threads, "used": None},
        "commit": commit, "source_sha256": source.hexdigest(),
    }


class Outcome:
    """One attempted request: latency (None if its inputs failed to build),
    failures, output digest, the record for the oracle check and the speed
    probe taken before it."""

    __slots__ = ("params", "latency", "failures", "digest", "record", "probe")

    def __init__(self, params, latency, failures, digest=None, record=None, probe=None):
        self.params, self.latency, self.failures = params, latency, failures
        self.digest, self.record, self.probe = digest, record, probe


def run_pass(workload, deck, workdir, tracer=None, first_id=0, gauge=None):
    """Issue every request of the deck in order (closed loop).  With a speed
    gauge, each outcome also gets the index of the probe taken before it."""
    clock = time.perf_counter
    outcomes = []
    for i, p in enumerate(deck):
        try:
            call, inputs = workload.prepare(p, workdir)
        except Exception as exc:  # noqa: BLE001 - a request whose inputs fail to build
            outcomes.append(Outcome(p, None, [f"inputs: {type(exc).__name__}: {exc}"]))
            continue
        probe = gauge.before_request() if gauge is not None else None
        if tracer is not None:
            tracer.request = first_id + i
            tracer.active = True
        error = None
        t0 = clock()
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
            error = f"{p['kind']}: {type(exc).__name__}: {exc}"
        t1 = clock()
        if tracer is not None:
            tracer.active = False
        if error is not None:
            outcomes.append(Outcome(p, t1 - t0, [error], probe=probe))
            continue
        try:
            failures, digest, record = workload.check(p, result, inputs)
        except Exception as exc:  # noqa: BLE001 - an output the check cannot read
            failures, digest, record = [f"check: {type(exc).__name__}: {exc}"], None, None
        outcomes.append(Outcome(p, t1 - t0, failures, digest, record, probe))
    return outcomes


def oracle_pass(workload, outcomes):
    for o in outcomes:
        if o.record is not None and not o.failures:
            try:
                o.failures.extend(workload.oracle_check(o.params, o.record))
            except Exception as exc:  # noqa: BLE001 - reported as a failed check
                o.failures.append(f"oracle: {type(exc).__name__}: {exc}")


def tail(latencies_ms):
    """Highest of TAIL_PERCENTILES with at least ten samples beyond it
    (nearest rank): (percentile, value, samples beyond)."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10 or pct == TAIL_PERCENTILES[-1]:
            return pct, ordered[rank - 1], n - rank
    raise AssertionError("unreachable")


def setup_times(args, workdir):
    times, unscaled, failures = [], [], []
    for _ in range(SETUP_REPEATS):
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--workdir", workdir],
                cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures.append(f"setup probe took longer than {PROBE_TIMEOUT_S} s")
            continue
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            failures.append(f"setup probe exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
            continue
        report = json.loads(lines[-1])
        times.append(report["setup_s"])
        unscaled.append(report["unscaled_s"])
        failures.extend(f"setup: {f}" for f in report["failures"])
    return times, unscaled, failures


def summarize_failures(outcomes, limit=10):
    lines = []
    for o in outcomes:
        for f in o.failures:
            if len(lines) < limit:
                lines.append(f"  {o.params['kind']}: {f}")
    return lines


def measure(args, workload, workdir):
    from speed import REFERENCE_S, Gauge
    from workloads import make_rng, params_digest

    setup, setup_unscaled, setup_failures = setup_times(args, workdir)
    rng = make_rng(args.seed)
    deck = workload.deck(rng)
    first_digest = params_digest([deck])
    # warm-up outside the measurement: set-up cost is reported as setup_s
    run_pass(workload, workload.setup_requests(deck), workdir)
    # per request: latency and the speed probe taken before it, in compact
    # arrays; oracle records go to a file, so that memory barely grows with
    # the length of the run
    latency, probe = array.array("d"), array.array("l")
    decks, failed, kinds, messages = 0, 0, {}, []
    records_path = os.path.join(workdir, "records.jsonl")
    gauge = Gauge()
    start = time.perf_counter()
    with open(records_path, "w") as records:
        while True:
            outcomes = run_pass(workload, deck, workdir, gauge=gauge)
            decks += 1
            for o in outcomes:
                kinds[o.params["kind"]] = kinds.get(o.params["kind"], 0) + 1
                if o.latency is not None:
                    latency.append(o.latency)
                    probe.append(o.probe)
                failed += bool(o.failures)
                if o.record is not None and not o.failures:
                    records.write(json.dumps([o.params, o.record]) + "\n")
            messages += summarize_failures(outcomes, 10 - len(messages))
            if time.perf_counter() - start >= args.seconds:
                break
            deck = workload.deck(rng)
    gauge.finish()
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    with open(records_path) as records:
        for line in records:
            params, record = json.loads(line)
            o = Outcome(params, None, [], record=record)
            oracle_pass(workload, [o])
            if o.failures:
                failed += 1
                messages += summarize_failures([o], 10 - len(messages))

    attempted = sum(kinds.values())
    scales = [gauge.scale(k) for k in range(len(gauge.times) - 1)]
    scaled_ms = [1e3 * t * scales[k] for t, k in zip(latency, probe)]
    unscaled_ms = [1e3 * t for t in latency]
    tail_pct, tail_ms, beyond = tail(scaled_ms)
    metrics = {
        "setup_s": statistics.median(setup) if setup else float("nan"),
        "throughput": (attempted - failed) / (sum(scaled_ms) / 1e3),
        "request_ms_p50": statistics.median(scaled_ms),
        "request_ms_tail": tail_ms,
        "peak_rss_mb": peak_rss_mb,
    }
    unscaled = {
        "setup_s": statistics.median(setup_unscaled) if setup_unscaled else float("nan"),
        "throughput": (attempted - failed) / (sum(unscaled_ms) / 1e3),
        "request_ms_p50": statistics.median(unscaled_ms),
        "request_ms_tail": tail(unscaled_ms)[1],
    }
    reference_ms = [1e3 * t for t in gauge.times]
    report = [
        f"workload {args.workload}: seed {args.seed}, {decks} deck(s) of {len(deck)} requests in "
        f"{wall:.1f} s, one closed-loop client; requests by kind {kinds}",
        f"inputs_sha256 (first deck): {first_digest}",
        f"machine speed: {len(reference_ms)} reference probes took {min(reference_ms):.3f} to "
        f"{max(reference_ms):.3f} ms (median {statistics.median(reference_ms):.3f}); times are "
        f"rescaled to {1e3 * REFERENCE_S:.3f} ms per probe, unscaled figures in brackets",
        f"setup_s          {metrics['setup_s']:.4f} s   [{unscaled['setup_s']:.4f}]  (median of "
        f"{len(setup)} fresh interpreters: " + ", ".join(f"{t:.4f}" for t in setup) + ")",
        f"throughput       {metrics['throughput']:.4f} 1/s  [{unscaled['throughput']:.4f}]  "
        f"({attempted - failed} correct requests in {sum(scaled_ms) / 1e3:.2f} s of request time)",
        f"request_ms_p50   {metrics['request_ms_p50']:.3f} ms  [{unscaled['request_ms_p50']:.3f}]  "
        f"(median of {len(scaled_ms)} requests)",
        f"request_ms_tail  {tail_ms:.3f} ms  [{unscaled['request_ms_tail']:.3f}]  (p{tail_pct} of "
        f"{len(scaled_ms)} requests, the highest percentile with at least 10 samples beyond it: "
        f"{beyond} beyond)",
        f"failed_frac      {failed / attempted:.4f}  ({failed} of {attempted} requests)",
        f"peak_rss_mb      {peak_rss_mb:.2f} MB  (peak resident memory of the measuring process)",
        f"checks: {attempted - failed}/{attempted} requests passed"
        + ("" if not setup_failures else f"; set-up failures: {len(setup_failures)}"),
    ]
    report += messages[:10] + [f"  {f}" for f in setup_failures[:5]]
    extra = {"failed_frac": failed / attempted, "tail": [tail_pct, tail_ms, beyond],
             "samples": len(scaled_ms), "decks": decks, "wall_s": wall, "unscaled": unscaled,
             "reference_ms": reference_ms, "setup_runs_s": setup,
             "setup_runs_unscaled_s": setup_unscaled, "inputs_sha256": first_digest}
    correct = failed == 0 and not setup_failures and len(setup) == SETUP_REPEATS
    units = dict(END_TO_END)
    return correct, attempted, failed, {k: (metrics[k], units[k]) for k, _ in END_TO_END}, report, extra


def traced(args, workload, workdir):
    from tracer import LAYERS, PER_LAYER, Tracer
    from workloads import make_rng, params_digest

    deck = workload.deck(make_rng(args.seed))
    start = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    try:
        cold = run_pass(workload, deck, workdir, tracer)
    finally:
        tracer.uninstall()
    passes = [cold]
    plain_s = traced_s = 0.0
    while len(passes) < 3 or time.perf_counter() - start < args.seconds:
        plain = run_pass(workload, deck, workdir)
        warm = Tracer()
        warm.install()
        try:
            again = run_pass(workload, deck, workdir, warm)
        finally:
            warm.uninstall()
        plain_s += sum(o.latency for o in plain if o.latency is not None)
        traced_s += sum(o.latency for o in again if o.latency is not None)
        passes += [plain, again]

    # traced and untraced passes must produce identical outputs
    for outcomes in passes[1:]:
        for ref, o in zip(cold, outcomes):
            if o.digest != ref.digest and not o.failures:
                o.failures.append("output differs between traced and untraced passes")
    oracle_pass(workload, cold)

    values, functions = tracer.layer_metrics()
    values["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for o in p if o.failures)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)

    total_self = sum(values[f"{layer}.self_s"] for layer in LAYERS) or 1.0
    bases = {
        "specfun.radial": f"us_per_element {values['specfun.radial.us_per_element']:.3f} over "
                          f"{values['specfun.radial.elements']} elements",
        "specfun.angular": f"ns_per_entry {values['specfun.angular.ns_per_entry']:.2f} over "
                           f"{values['specfun.angular.entries']} entries",
        "mie": f"orders {values['mie.orders']}, resonance_errors {values['mie.resonance_errors']}",
        "resonance": f"muller_iterations {values['resonance.muller_iterations']}, "
                     f"denominator_evals {values['resonance.denominator_evals']}, converged_ratio "
                     f"{values['resonance.converged_ratio']:.4f} = {values['resonance.converged']}"
                     f"/{values['resonance.attempts']} attempts",
        "fields": f"points {values['fields.points']}",
        "multipole": f"quad_nodes {values['multipole.quad_nodes']}",
        "cli": f"rows {values['cli.rows']}, bytes {values['cli.bytes']}",
    }
    report = [
        f"workload {args.workload}: seed {args.seed}, traced cold pass over one deck of "
        f"{len(deck)} requests, then {(len(passes) - 1) // 2} warm untraced/traced pair(s)",
        f"inputs_sha256: {params_digest([deck])}",
        f"{'layer':<16} {'calls':>9} {'self_s':>10} {'share':>7}  work",
    ]
    for layer in sorted(LAYERS, key=lambda name: -values[f"{name}.self_s"]):
        s = values[f"{layer}.self_s"]
        report.append(f"{layer:<16} {values[f'{layer}.calls']:>9} {s:>10.4f} "
                      f"{100 * s / total_self:>6.1f}%  {bases.get(layer, '')}")
    report.append("top functions by self time (calls, self_s):")
    for name, (calls, own) in sorted(functions.items(), key=lambda kv: -kv[1][1])[:12]:
        report.append(f"  {name:<40} {calls:>9} {own:>10.4f}")
    report += [
        f"trace.overhead_frac {values['trace.overhead_frac']:.4f}  (traced {traced_s:.3f} s vs "
        f"untraced {plain_s:.3f} s of request time over the warm pairs)",
        f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
        f"checks: {attempted - failed}/{attempted} requests passed over {len(passes)} passes "
        "(outputs compared between traced and untraced passes)",
    ] + summarize_failures([o for p in passes for o in p])
    metrics = {f"{layer}.{name}": (values[f"{layer}.{name}"], unit) for layer, name, unit, _ in PER_LAYER}
    extra = {"functions": {k: {"calls": c, "self_s": s} for k, (c, s) in functions.items()},
             "resonance.converged": values["resonance.converged"],
             "inputs_sha256": params_digest([deck]), "spans": len(tracer.spans)}
    return failed == 0, attempted, failed, metrics, report, extra


def run_all(args):
    """Every workload in its own process; prints each report and a summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.rstrip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n\n")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            summary["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dieres" / "__init__.py").is_file():
        print(f"error: no dieres sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    inherited_threads = os.environ.pop("DIERES_THREADS", None)
    # one BLAS thread: the client is single-threaded, and BLAS threads that
    # spin on the second core of a small shared machine only add noise
    inherited_blas = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        run = traced if args.trace else measure
        correct, attempted, failed, metrics, report, extra = run(args, workload, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ctx = context(args, inherited_threads, inherited_blas)
    for line in report:
        print(line)
    print("context: " + json.dumps(ctx, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"context": ctx, "result": result, "details": extra}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
