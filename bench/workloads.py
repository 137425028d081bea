"""The three benchmark workloads.

Each workload is a closed loop with one client: the next operation starts
only after the previous one has returned and been checked.  An operation's
inputs come from ``numpy.random.default_rng([seed, stream, k])``, so the same
seed gives the same inputs; the library only ever sees the generated data.

Operations run in fixed rounds (``ROUND``).  Every round has the same mix of
problem sizes, so the latency distribution, and every count derived from
argument shapes, is the same on every seed.  A round is eight ops in three
cost classes of one problem size each: three small, three middle and two
large, each class about twice the cost of the one below or more.  The median
then falls in the middle of the middle class and the 90th percentile 60% of
the way into the large one, so each quantile follows one problem size and
sits where that size's own latencies are densest.

A workload provides:

* ``make_input(k, stream)``: the inputs of operation ``k`` (untimed);
* ``run(inp)``: the operation itself, the only timed call;
* ``check(inp, out)``: raises ``CheckFailed`` if the output is wrong
  (untimed);
* ``digest(out)``: bytes that must repeat exactly when the same input is
  run again.

The timed calls go through the package attributes (``herglotz.solve_cf``,
``herglotz.cli.main``) so that the traced run sees them.
"""

import contextlib
import io
import json
import os

import numpy as np

import herglotz
import herglotz.cli
from herglotz import (
    HerglotzSeries,
    assemble,
    eval_realization,
    eval_series,
    parse_problem,
    random_realization,
    realization_coefficients,
    serialize_problem,
)

# Bounds of the acceptance suite (tests/test_acceptance.py), reused as is.
EXTENSION_CLOSURE_MIN_EIG = -1e-8  # test_extension_closure
KERNEL_MIN_EIG = -1e-6  # test_kernel_positivity
ORACLE_SLACK = 1e-9  # test_oracle_equivalence
CLI_TOL = 1e-9  # the CLI's default --tol, which reduce enforces on residuals

RADIUS = 0.9


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def sample_disk(rng, count, radius=RADIUS):
    """Uniform points in the disk of the given radius, as in the acceptance suite."""
    return radius * np.sqrt(rng.uniform(0, 1, count)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, count)
    )


class Extend:
    """One op is one ``solve_cf(seq, horizon)`` on order-8 realization data.

    The extension layer does almost all the work: per step it assembles the
    Toeplitz matrix, re-checks it with a full ``eigvalsh``, inverts it and
    makes two solves.  This is the workload a faster extension must move.
    """

    name = "extend"
    ORDER = 8
    # (block_dim, horizon): small (1, 64), middle (2, 64), about 2.7 times
    # the small cost, and large (2, 128), about 9 times the middle one
    ROUND = ((1, 64), (2, 64), (2, 128), (1, 64), (2, 64), (1, 64), (2, 64), (2, 128))

    def __init__(self, seed):
        self.seed = seed

    def make_input(self, k, stream=0):
        d, horizon = self.ROUND[k % len(self.ROUND)]
        rng = np.random.default_rng([self.seed, stream, k])
        rlz = random_realization(rng, d, int(rng.integers(d, 9)))
        return realization_coefficients(rlz, self.ORDER), horizon

    def run(self, inp):
        seq, horizon = inp
        return herglotz.solve_cf(seq, horizon)

    def check(self, inp, out):
        seq, horizon = inp
        coeffs = out.seq.coefficients
        if len(coeffs) != horizon + 1:
            raise CheckFailed(f"{len(coeffs)} coefficients, expected {horizon + 1}")
        if coeffs[: len(seq)].tobytes() != seq.coefficients.tobytes():
            raise CheckFailed("input prefix is not bitwise equal")
        # by interlacing the full matrix bounds every prefix from below
        worst = np.linalg.eigvalsh(assemble(out.seq).dense)[0]
        if worst < EXTENSION_CLOSURE_MIN_EIG:
            raise CheckFailed(f"extension min eigenvalue {worst:+.3e}")

    def digest(self, out):
        return out.seq.coefficients.tobytes()


class Kernel:
    """One op is one ``kernel_gram`` on a fresh point grid over a fixed series.

    The series has T = 256 coefficients (the CLI's default truncation), taken
    straight from ``realization_coefficients``: no extension and no
    certification, so the ``series`` layer does the work.  Ops alternate the
    dense and the vector-compressed Gram within a round, and every grid size
    gets both.
    """

    name = "kernel"
    TRUNCATION = 256
    BLOCK_DIM = 2
    STATE_DIM = 6
    # grid sizes: small 16 (the CLI default), middle 40, large 100
    ROUND = (16, 40, 100, 16, 40, 16, 40, 100)

    def __init__(self, seed):
        self.seed = seed
        rng = np.random.default_rng([seed, 2])
        self.rlz = random_realization(rng, self.BLOCK_DIM, self.STATE_DIM)
        self.phi = HerglotzSeries(
            realization_coefficients(self.rlz, self.TRUNCATION), declared_radius=RADIUS
        )
        self.c_norm = float(np.linalg.norm(self.rlz.C, 2))

    def make_input(self, k, stream=0):
        i = k % len(self.ROUND)
        m = self.ROUND[i]
        rng = np.random.default_rng([self.seed, stream, k])
        points = sample_disk(rng, m)
        vectors = None
        if i % 2:
            vectors = rng.standard_normal((m, self.BLOCK_DIM)) + 1j * rng.standard_normal(
                (m, self.BLOCK_DIM)
            )
        return points, vectors

    def run(self, inp):
        points, vectors = inp
        return herglotz.kernel_gram(self.phi, points, vectors)

    def check(self, inp, out):
        if not out.is_psd or out.min_eigenvalue < KERNEL_MIN_EIG:
            raise CheckFailed(f"kernel Gram min eigenvalue {out.min_eigenvalue:+.3e}")
        points, _ = inp
        t = self.TRUNCATION
        for z in points:
            gap = np.linalg.norm(eval_realization(self.rlz, z) - eval_series(self.phi, z), 2)
            bound = 2 * self.c_norm**2 * abs(z) ** (t + 1) / (1 - abs(z)) + ORACLE_SLACK
            if gap > bound:
                raise CheckFailed(f"series vs realization gap {gap:.3e} > {bound:.3e} at {z}")

    def digest(self, out):
        return repr((out.min_eigenvalue, out.is_psd, out.tolerance_used)).encode()


def _cli(argv):
    """Run ``herglotz.cli.main`` in-process, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = herglotz.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _point_flag(z):
    # the '=' form keeps argparse from reading a negative value as a flag
    return f"{z.real!r},{z.imag!r}"


class Cli:
    """One op is one problem run in-process through ``herglotz.cli.main``:
    generate -> check -> reduce -> solve -> eval -> kernel, all with --json.

    Order 64 with --horizon and --truncation equal to the order, so solve
    extends nothing.  The per-level positivity profile (check, and solve's
    feasibility pass) dominates; io parsing and serialization and the CLI's
    own emission are visible.
    """

    name = "cli"
    ORDER = 64
    # block dims: small 2, middle 3 (about 1.8 times d = 2), large 4 (about
    # 1.9 times d = 3)
    ROUND = (2, 3, 4, 2, 3, 2, 3, 4)
    COMMON = ("--json", "--horizon", str(ORDER), "--truncation", str(ORDER))

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _generate_argv(self, inp, path):
        d, gen_seed = inp[0], inp[1]
        return [
            "generate", "--seed", str(gen_seed), "--block-dim", str(d),
            "--state-dim", str(2 * d + 2), "--order", str(self.ORDER),
            "--output", path, *self.COMMON,
        ]

    def make_input(self, k, stream=0):
        d = self.ROUND[k % len(self.ROUND)]
        rng = np.random.default_rng([self.seed, stream, k])
        gen_seed = int(rng.integers(0, 2**31))
        z, w = sample_disk(rng, 2)
        return d, gen_seed, complex(z), complex(w)

    def run(self, inp):
        _, gen_seed, z, w = inp
        problem = self._path("problem.json")
        seed = ("--seed", str(gen_seed))
        steps = [
            ("generate", self._generate_argv(inp, problem)),
            ("check", ["check", problem, *seed, *self.COMMON]),
            ("reduce", ["reduce", problem, "--output", self._path("reduced.json"),
                        *seed, *self.COMMON]),
            ("solve", ["solve", problem, "--output", self._path("solved.json"),
                       *seed, *self.COMMON]),
            ("eval", ["eval", problem, f"--z={_point_flag(z)}", *seed, *self.COMMON]),
            ("kernel", ["kernel", problem, f"--z={_point_flag(z)}",
                        f"--w={_point_flag(w)}", *seed, *self.COMMON]),
        ]
        return {name: _cli(argv) for name, argv in steps}

    def _read(self, name):
        with open(self._path(name), encoding="utf-8") as fh:
            return fh.read()

    def check(self, inp, out):
        for name, (code, _, err) in out.items():
            if code != 0:
                raise CheckFailed(f"{name} exited {code}: {err.strip()}")
        reports = {name: json.loads(text) for name, (_, text, _) in out.items()}
        if not reports["check"]["all_psd"]:
            raise CheckFailed("check reports data that is not PSD")
        if not reports["solve"]["kernel"]["psd"]:
            raise CheckFailed("solve reports a kernel Gram that is not PSD")
        residuals = json.loads(self._read("reduced.json"))["residuals"]
        if max(residuals) > CLI_TOL:
            raise CheckFailed(f"reduce residual {max(residuals):.3e} > {CLI_TOL:.0e}")
        generated = self._read("problem.json")
        code, _, err = _cli(self._generate_argv(inp, self._path("problem-again.json")))
        if code != 0 or self._read("problem-again.json") != generated:
            raise CheckFailed(f"generate is not deterministic for seed {inp[1]} {err}")
        for name in ("problem.json", "solved.json"):
            text = self._read(name)
            if serialize_problem(parse_problem(text)) != text:
                raise CheckFailed(f"parse then serialize changes {name}")

    def digest(self, out):
        files = ("problem.json", "reduced.json", "solved.json")
        reports = "".join(text for _, text, _ in out.values())
        return (reports + "".join(self._read(name) for name in files)).encode()
