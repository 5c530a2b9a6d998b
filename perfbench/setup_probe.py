"""Set-up time of one workload in a fresh interpreter.

Times the import of ``dieres`` and ``dieres.cli`` and the workload's first
call of each entry point (inputs included), then the reference computation of
``speed.py``, and prints one JSON line ``{"setup_s": ..., "failures": [...]}``
with the set-up time rescaled to the reference speed (``unscaled_s`` holds the
plain time).  ``run.py`` starts it several times
per run and reports the median.

    PYTHONPATH=src:perfbench python3 perfbench/setup_probe.py \
        --workload root-track --seed 1 --workdir .perfbench_out
"""

import argparse
import json
import statistics
import sys
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import dieres  # noqa: F401
    import dieres.cli  # noqa: F401
    imported = time.perf_counter() - t0

    from workloads import WORKLOADS, make_rng

    workload = WORKLOADS[args.workload]
    first = workload.setup_requests(workload.deck(make_rng(args.seed)))
    failures = []
    t0 = time.perf_counter()
    for p in first:
        try:
            call, _ = workload.prepare(p, args.workdir)
            call()
        except Exception as exc:  # noqa: BLE001 - reported as a failed set-up
            failures.append(f"{p['kind']}: {type(exc).__name__}: {exc}")
    first_calls = time.perf_counter() - t0

    from speed import REFERENCE_S, Gauge, reference

    Gauge()  # warms the reference up
    probe = statistics.median(reference() for _ in range(3))
    unscaled = imported + first_calls
    print(json.dumps({"setup_s": unscaled * REFERENCE_S / probe, "unscaled_s": unscaled,
                      "import_s": imported, "reference_s": probe, "failures": failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
