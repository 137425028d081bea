"""A fixed reference job that follows the machine's speed during a run.

The benchmark runs on shared hosts whose CPU speed changes by up to a factor
of two in phases of a few seconds, and CPU time slows with wall time, so the
loss is speed, not time.  Raw latencies of two runs of the same code then
differ by more than most changes a benchmark should show.  ``SpeedProbe``
times one fixed job that never calls ``herglotz`` next to every operation;
the benchmark scales each operation's time by ``REFERENCE_MS`` over the
probe's local time, which reports it at the speed at which the probe takes
``REFERENCE_MS``.  A change to the library moves the operations and not the
probe, so it moves the scaled times by the same factor as the raw ones.

The job mixes the three kinds of work the workloads spend their time on:
LAPACK on a mid-sized Hermitian matrix (``extend``, ``cli``), many numpy
calls on 2-by-2 blocks (``kernel``'s tail bound), and pure-Python JSON work
(``cli``'s io).  ``REFERENCE_MS`` is about its time in the fast phases of
the machine the benchmark was built on (2 vCPUs of a shared Intel Xeon host,
where it took 10-17 ms); any fixed value would do.
"""

import json
from time import perf_counter

import numpy as np

REFERENCE_MS = 11.0


class SpeedProbe:
    """Times the reference job and keeps every time it measured."""

    def __init__(self):
        rng = np.random.default_rng(0)
        n = 128
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        self.matrix = a @ a.conj().T + n * np.eye(n)
        self.blocks = rng.standard_normal((240, 2, 2)) + 1j * rng.standard_normal((240, 2, 2))
        rows = rng.standard_normal((50, 4, 8))
        self.document = {"coefficients": [[[[float(x), float(y)] for x, y in zip(r, r[::-1])]
                                           for r in block] for block in rows]}
        self.times = []  # seconds, one per probe
        for _ in range(3):  # warm caches and lazy numpy set-up
            self._job()

    def _job(self):
        np.linalg.eigvalsh(self.matrix)
        np.linalg.inv(self.matrix)
        for block in self.blocks:
            np.linalg.norm(block, 2)
        json.loads(json.dumps(self.document))

    def run(self):
        """Time the job once; return its wall time in seconds."""
        start = perf_counter()
        self._job()
        elapsed = perf_counter() - start
        self.times.append(elapsed)
        return elapsed

    @staticmethod
    def scale(seconds, probe_seconds):
        """``seconds`` at reference speed, given the probe's local time."""
        return seconds * (REFERENCE_MS / 1e3) / probe_seconds
