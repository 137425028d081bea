"""Benchmark of the herglotz library: one workload per run, one client.

    python3 bench/run.py --workload extend --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The library is imported from ``src/`` of
that checkout.  With ``--trace 0`` the run prints the end-to-end metrics;
with ``--trace 1`` it prints the per-layer metrics of a traced pass and the
tracing overhead.  Times are scaled to reference speed by a probe job run
between ops (speed.py); the raw figures are printed next to them.  The last
line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See bench/README.md.
"""

import os

# Pin the BLAS to one thread before numpy loads it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class StdoutGuard:
    """Stands in for the benchmark's own stdout while an op runs.

    It is installed before ``herglotz`` is imported, so code that bound
    ``sys.stdout`` at import time (``herglotz.cli._print_matrix``) writes
    here.  While ``armed`` it swallows and records the text, and the op
    that wrote it fails.
    """

    def __init__(self, real):
        self.real = real
        self.armed = False
        self.leaked = ""

    def write(self, text):
        if self.armed:
            self.leaked += text
            return len(text)
        return self.real.write(text)

    def __getattr__(self, name):
        return getattr(self.real, name)


def git_commit(root):
    """Commit of a git checkout, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
        "commit": git_commit(ROOT),
    }


class Runner:
    """Runs ops of one workload in whole rounds and keeps their outcomes.

    The speed probe runs between ops, so each op lies between two probes,
    and its time is scaled to reference speed by their mean (see speed.py).
    """

    def __init__(self, workload, guard, probe, tracer=None):
        self.workload = workload
        self.guard = guard
        self.probe = probe
        self.tracer = tracer
        self.last_probe = None  # seconds of the probe run after the last op
        self.latencies = []  # (op number, seconds at reference speed, raw seconds) of checked ops
        self.busy = 0.0  # seconds at reference speed inside ops, failed ones too
        self.raw_busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def one(self, k, stream=0):
        """Run, time and check op ``k``; return its digest, or None if it failed."""
        wl = self.workload
        inp = wl.make_input(k, stream)
        self.attempted += 1
        before = self.last_probe if self.last_probe is not None else self.probe.run()
        self.guard.armed = True
        start = perf_counter()
        try:
            if self.tracer is None:
                out = wl.run(inp)
            else:
                with self.tracer.op_span(k):
                    out = wl.run(inp)
        except Exception:  # any exception is a failed op; record it and go on
            self.guard.armed = False
            self._account(perf_counter() - start, before)
            return self._fail(k, traceback.format_exc(limit=3))
        elapsed = perf_counter() - start
        self.guard.armed = False
        scaled = self._account(elapsed, before)
        if self.guard.leaked:
            leaked, self.guard.leaked = self.guard.leaked, ""
            return self._fail(k, f"wrote to the benchmark's stdout: {leaked[:200]!r}")
        try:
            wl.check(inp, out)
        except Exception as exc:  # CheckFailed, or a check that could not run
            return self._fail(k, f"output check: {exc}")
        self.latencies.append((k, scaled, elapsed))
        return wl.digest(out)

    def _account(self, elapsed, before):
        """Add an op's time to the busy totals; return it at reference speed."""
        self.last_probe = self.probe.run()
        scaled = self.probe.scale(elapsed, (before + self.last_probe) / 2)
        self.busy += scaled
        self.raw_busy += elapsed
        return scaled

    def _fail(self, k, why):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"op {k}: {why}")
        return None

    def round(self, r):
        """Run round ``r``, the ops numbered r * len(ROUND) onwards."""
        size = len(self.workload.ROUND)
        for i in range(size):
            self.one(r * size + i)


def rounds_for(seconds, run_round):
    """Call ``run_round(r)`` for r = 0, 1, ... until ``seconds`` have passed.

    Only whole rounds run, so every run has the same mix of problem sizes.
    Returns the number of rounds.
    """
    deadline = perf_counter() + seconds
    count = 0
    while count == 0 or perf_counter() < deadline:
        run_round(count)
        count += 1
    return count


def make_workload(name, seed, workdir):
    """The named workload, for the given seed."""
    from workloads import Cli, Extend, Kernel

    if name == "cli":
        return Cli(seed, workdir)
    return {"extend": Extend, "kernel": Kernel}[name](seed)


def set_up(name, seed, workdir, guard):
    """Import, fixture generation and one warm-up round of every problem size.

    The fixture generation and warm-up are repeated ``SETUP_REPEATS`` times;
    the set-up time is the import time plus their median.  Each repeat runs
    the same warm-up inputs, so their outputs must be byte-identical.  Times
    are scaled to reference speed by the median probe of their repeat (the
    import by that of the first); the probes' own time is not counted.
    Returns (workload, probe, setup seconds, raw setup seconds, their parts,
    error or None).
    """
    start = perf_counter()
    import numpy  # noqa: F401  (timed: part of the import cost)
    import herglotz
    import workloads  # noqa: F401

    imported = perf_counter() - start
    from speed import SpeedProbe
    if Path(herglotz.__file__).resolve().parent != (SRC / "herglotz").resolve():
        raise ImportError(f"herglotz imported from {herglotz.__file__}, not from {SRC}")
    probe = SpeedProbe()
    times, raw_times, probe_medians, reference, error = [], [], [], None, None
    for _ in range(SETUP_REPEATS):
        first = len(probe.times)
        start = perf_counter()
        workload = make_workload(name, seed, workdir)
        warm = Runner(workload, guard, probe)
        digests = [warm.one(i, stream=1) for i in range(len(workload.ROUND))]
        raw = perf_counter() - start - sum(probe.times[first:])
        probe_medians.append(statistics.median(probe.times[first:]))
        times.append(probe.scale(raw, probe_medians[-1]))
        raw_times.append(raw)
        if warm.failed:
            error = "warm-up failed: " + "; ".join(warm.errors)
        elif reference is not None and digests != reference:
            error = "warm-up outputs differ between repeats with the same seed"
        reference = digests
    scaled_import = probe.scale(imported, probe_medians[0])
    parts = {"import_s": scaled_import, "raw_import_s": imported,
             "repeats_s": times, "raw_repeats_s": raw_times}
    return (workload, probe, scaled_import + statistics.median(times),
            imported + statistics.median(raw_times), parts, error)


def quantiles_ms(seconds):
    """Median and 90th percentile, in ms, of a list of seconds."""
    ms = sorted(1e3 * t for t in seconds)
    if len(ms) < 2:
        return float("nan"), float("nan")
    return statistics.median(ms), statistics.quantiles(ms, n=10)[8]


def end_to_end(runner, setup_s, raw_setup_s):
    """End-to-end metrics at reference speed; the notes give the raw figures."""
    n = len(runner.latencies)
    p50, p90 = quantiles_ms([t for _, t, _ in runner.latencies])
    raw_p50, raw_p90 = quantiles_ms([t for _, _, t in runner.latencies])
    return {
        "setup_s": (setup_s, "s", f"raw {raw_setup_s:.4g} s"),
        "ops_per_s": (n / runner.busy if runner.busy else 0.0, "1/s",
                      f"{n} checked ops in {runner.busy:.2f} s inside ops; "
                      f"raw {n / runner.raw_busy if runner.raw_busy else 0.0:.4g}/s"),
        "op_p50_ms": (p50, "ms", f"n={n}; raw {raw_p50:.4g} ms"),
        "op_p90_ms": (p90, "ms", f"n={n}, {n - int(0.9 * n)} above; raw {raw_p90:.4g} ms"),
        "error_rate": (runner.failed / runner.attempted, "ratio",
                       f"{runner.failed} failed of {runner.attempted} attempted"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
    }


def traced(workload, guard, probe, seconds):
    """Each round twice, untraced then traced, until ``seconds`` have passed.

    Alternating, and scaling to reference speed, keep the machine's drift
    out of the overhead ratio.
    """
    import numpy as np
    from spans import Tracer, folded_self_times, layer_metrics

    plain = Runner(workload, guard, probe)
    tracer = Tracer()
    runner = Runner(workload, guard, probe, tracer)

    def both(r):
        plain.round(r)
        with tracer.patched():
            runner.round(r)

    n_ops = rounds_for(seconds, both) * len(workload.ROUND)
    metrics = layer_metrics(tracer, n_ops, runner.busy / plain.busy)
    notes = {"ops": n_ops, "largest_self_s_with_numpy_folded_in": [
        [name, total / n_ops] for name, total in folded_self_times(tracer)[:6]
    ]}
    np.savez(OUT_DIR / f"spans-{workload.name}.npz", **tracer.arrays())
    return plain, runner, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("extend", "kernel", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "herglotz" / "__init__.py").is_file():
        print(f"error: no herglotz sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    real_stdout = sys.stdout
    guard = StdoutGuard(real_stdout)
    sys.stdout = guard
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        workload, probe, setup_s, raw_setup_s, setup_parts, setup_error = set_up(
            args.workload, args.seed, workdir, guard)
        if args.trace:
            plain, runner, metrics, notes = traced(workload, guard, probe, args.seconds)
            attempted = plain.attempted + runner.attempted
            failed = plain.failed + runner.failed
            errors = plain.errors + runner.errors
            report = {k: (v, u, "") for k, (v, u) in metrics.items()}
        else:
            runner = Runner(workload, guard, probe)
            rounds_for(args.seconds, runner.round)
            attempted, failed, errors = runner.attempted, runner.failed, runner.errors
            report = end_to_end(runner, setup_s, raw_setup_s)
            notes = {"latencies_ms": [[k, 1e3 * t, 1e3 * raw] for k, t, raw in runner.latencies]}
        notes["setup_parts"] = setup_parts
        notes["probe_ms"] = [1e3 * t for t in probe.times]
    sys.stdout = real_stdout

    correct = failed == 0 and setup_error is None
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "correct": correct,
        "attempted": attempted, "failed": failed, "setup_error": setup_error,
        "errors": errors, **notes,
        "metrics": {k: {"value": v, "unit": u, "note": note} for k, (v, u, note) in report.items()},
    }
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for key, (value, unit, note) in report.items():
        print(f"  {key:<40} {value:>14.6g} {unit:<11} {note}")
    for line in notes.get("largest_self_s_with_numpy_folded_in", []):
        print(f"  largest self time (numpy folded in): {line[0]:<32} {line[1]:.6g} s/op")
    for line in ([setup_error] if setup_error else []) + errors:
        print(f"  FAILED {line}", file=sys.stderr)
    metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in report.items()
               if k != "error_rate"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
