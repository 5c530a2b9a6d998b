"""Machine speed, probed with a fixed reference computation.

The benchmark runs on small shared machines whose speed drifts by a third or
more over seconds to minutes (see README.md, "Machine noise").  ``reference``
times a fixed computation that does not use dieres: Python complex
arithmetic, numpy ufuncs on short arrays and a few passes over a larger array,
the mix that dieres requests spend their time in.  ``Gauge`` runs it between
requests and rescales each request's latency to the speed the reference has
at ``REFERENCE_S``:

    latency at reference speed = latency * REFERENCE_S / reference time around it

``REFERENCE_S`` is a fixed scale, close to the median probe time on the
2-core Xeon virtual machine (2.1 GHz) the baseline was taken on, so that
rescaled figures there read close to plain seconds.
"""

import cmath
import statistics
import time

import numpy as np

REFERENCE_S = 0.005
PROBE_EVERY_S = 0.25

_SHORT = np.linspace(0.1, 3.0, 48) + 0.1j
_LONG = np.linspace(0.0, 1.0, 1 << 14) + 0.5j


def _work():
    acc = 0j
    for k in range(160):
        acc += (np.sqrt(_SHORT * (k + 1)) * np.exp(-1j * _SHORT)).sum()
        z = complex(0.3 + k * 1e-3, 0.1)
        for n in range(12):
            z = z * 1.0001 + cmath.sqrt(z) / (n + 1)
        acc += z
    for k in range(4):
        acc += np.exp(1j * (k + 1) * _LONG).sum()
    return acc


def reference():
    """Seconds one run of the reference computation takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


class Gauge:
    """Reference probes between requests, at most every PROBE_EVERY_S.

    ``before_request`` probes when one is due and returns the index of the
    latest probe; the request is then bracketed by that probe and the next
    one.  ``finish`` takes the closing probe of a run.  A request is rescaled
    by the mean of the WINDOW probes on each side of it.
    """

    WINDOW = 2

    def __init__(self):
        _work()  # first calls of the ufuncs, outside the probes
        self.times = []
        self._due = 0.0

    def _probe(self):
        self.times.append(reference())
        self._due = time.perf_counter() + PROBE_EVERY_S

    def before_request(self):
        if time.perf_counter() >= self._due:
            self._probe()
        return len(self.times) - 1

    def finish(self):
        self._probe()

    def scale(self, index):
        """Factor that rescales a latency bracketed by probes index, index + 1."""
        around = self.times[max(0, index + 1 - self.WINDOW):index + 1 + self.WINDOW]
        return REFERENCE_S / statistics.fmean(around)
