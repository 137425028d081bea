"""Command-line front end.

Subcommands: ``check`` (positivity profile), ``solve`` (central extension
plus kernel Gram summary), ``eval`` and ``kernel`` (point evaluation),
``reduce`` (base-factor reduction), ``generate`` (seeded random fixture).
``check`` reports each truncation level's verdicts with its smallest
eigenvalue where the level was decomposed (``min_eigenvalue``), and
otherwise with the interlacing bracket that contains the value a
decomposition would give (``min_eigenvalue_bounds``); see
``positivity_profile``.
Exit statuses: 0 success, 2 parse/argument error (including an input that
cannot be read or an ``--output`` that cannot be written), 3 infeasible
data, 4 domain error, 5 internal tolerance failure (including a ``solve``
whose own kernel Gram report is not PSD, where the report is still
emitted, and an ``eval`` or ``kernel`` value or tail bound that is not
finite, in either output mode, where nothing is emitted).
"""

import argparse
import functools
import sys
from dataclasses import fields

import numpy as np

from .exceptions import (
    DimensionError,
    DomainError,
    FactorizationMismatchError,
    FixtureError,
    InsufficientDataError,
    NotHermitianError,
    NotPsdError,
    OutOfBallError,
    ProblemFormatError,
    RangeCompatibilityError,
    SingularBlockError,
)
from .extension import solve_cf
from .io import (
    ProblemFile,
    RunConfig,
    canonical_json,
    load_problem,
    serialize_problem,
)
from .series import (
    HerglotzSeries,
    eval_series,
    kernel_gram,
    kernel_value,
    random_realization,
    realization_coefficients,
    reduce,
    series_tail_bound,
)
from .toeplitz import positivity_profile

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_DOMAIN = 4
EXIT_TOLERANCE = 5


def _complex_flag(text):
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 're,im' or 're', got {text!r}")


_FLAG_HELP = {
    "eps": "positive extension shift (determinate data take none; certified to -max(tol, eps))",
    "tol": "positivity tolerance",
    "horizon": "highest output coefficient index",
    "truncation": "series evaluation truncation",
    "grid": "number of kernel test points",
    "seed": "random generator seed (PCG64)",
    "radius": "declared evaluation radius",
}


def _run_flags():
    # one flag per RunConfig field, with the field's default
    p = argparse.ArgumentParser(add_help=False)
    for f in fields(RunConfig):
        p.add_argument(
            f"--{f.name}", type=type(f.default), default=f.default, help=_FLAG_HELP[f.name]
        )
    p.add_argument("--json", action="store_true", help="machine-readable report on stdout")
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="herglotz",
        description="Positive block-Toeplitz coefficient data: check, extend, evaluate, reduce.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = _run_flags()
    # only the commands with a data product take --output
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write the data product to this path")
    with_output = [flags, output]

    p = sub.add_parser("check", parents=[flags], help="positivity profile of a problem file")
    p.add_argument("input", help="problem file (JSON)")

    p = sub.add_parser("solve", parents=with_output, help="central extension to the horizon")
    p.add_argument("input", help="problem file (JSON)")

    p = sub.add_parser("eval", parents=[flags], help="evaluate the series at a point")
    p.add_argument("input", help="problem file (JSON)")
    p.add_argument("--z", type=_complex_flag, required=True, help="evaluation point 're,im'")

    p = sub.add_parser("kernel", parents=[flags], help="evaluate the kernel at a point pair")
    p.add_argument("input", help="problem file (JSON)")
    p.add_argument("--z", type=_complex_flag, required=True, help="first point 're,im'")
    p.add_argument("--w", type=_complex_flag, required=True, help="second point 're,im'")

    p = sub.add_parser("reduce", parents=with_output, help="base-factor reduction of the data")
    p.add_argument("input", help="problem file (JSON)")

    p = sub.add_parser("generate", parents=with_output, help="seeded random fixture file")
    p.add_argument("--block-dim", type=int, default=1, help="coefficient block dimension d")
    p.add_argument("--state-dim", type=int, default=4, help="internal state dimension h")
    p.add_argument("--order", type=int, default=8, help="highest coefficient index N")
    p.add_argument("--zero-c", action="store_true", help="force the input map C to zero")

    return parser


def _config(args):
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})


def _sample_points(rng, count, radius):
    u = rng.uniform(0.0, 1.0, count)
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    return radius * np.sqrt(u) * np.exp(1j * theta)


def _matrix_lines(m):
    return [
        "  [" + ", ".join(f"{v.real:+.12e}{v.imag:+.12e}j" for v in row) + "]"
        for row in np.asarray(m)
    ]


def _emit(args, report, lines, product=None):
    # the one place a command writes its output.  The data product, if any,
    # is canonical text formatted once, which the report embeds as it is;
    # it goes to --output when given.  --json puts the canonical report on
    # stdout; text mode prints ``lines`` instead, on stderr when the product
    # itself goes to stdout so the two never mix.
    if product is not None and args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(product)
    if args.json:
        sys.stdout.write(canonical_json(report))
        return
    out = sys.stdout
    if product is not None and not args.output:
        sys.stdout.write(product)
        out = sys.stderr
    for line in lines:
        print(line, file=out)


def _emit_value(args, report, lines):
    # eval and kernel: a value or tail bound that overflowed is a numerical
    # failure, in either output mode, and nothing is emitted
    if not (np.isfinite(report["value"]).all() and np.isfinite(report["tail_bound"])):
        print(f"error: {report['command']} value or tail bound is not finite", file=sys.stderr)
        return EXIT_TOLERANCE
    _emit(args, report, lines)
    return EXIT_OK


def _level_entry(n, r):
    # a decomposed level reports its min eigenvalue, an interlaced one the
    # bracket that contains it
    entry = {"is_psd": r.is_psd, "is_strictly_positive": r.is_strictly_positive, "level": n}
    if r.lower == r.upper:
        entry["min_eigenvalue"] = r.lower
        value = f"{r.lower:+.6e}"
    else:
        entry["min_eigenvalue_bounds"] = [r.lower, r.upper]
        value = f"in [{r.lower:+.6e}, {r.upper:+.6e}]"
    return entry, f"level {n}: min eigenvalue {value}  {'PSD' if r.is_psd else 'not PSD'}"


def cmd_check(args):
    cfg = _config(args)
    pf = load_problem(args.input)
    reports = positivity_profile(pf.to_sequence(), cfg.tol)
    all_psd = all(r.is_psd for r in reports)
    entries, lines = zip(*(_level_entry(n, r) for n, r in enumerate(reports)))
    report = {
        "all_psd": all_psd,
        "block_dim": pf.block_dim,
        "command": "check",
        "levels": list(entries),
        "tol": cfg.tol,
    }
    _emit(args, report, [*lines, f"verdict: {'PSD' if all_psd else 'not PSD'}"])
    return EXIT_OK if all_psd else EXIT_INFEASIBLE


def cmd_solve(args):
    cfg = _config(args)
    pf = load_problem(args.input)
    seq = pf.to_sequence()
    # extend once to the longer of horizon/truncation; the central extension
    # is deterministic, so the written horizon prefix is unaffected
    target = max(cfg.horizon, cfg.truncation, seq.order)
    full = solve_cf(seq, target, eps=cfg.eps, tol=cfg.tol, radius=cfg.radius)
    out_seq = full.seq.truncated(min(cfg.horizon, full.seq.order))
    rng = np.random.default_rng(cfg.seed)
    points = _sample_points(rng, cfg.grid, cfg.radius)
    gram = kernel_gram(full, points)
    product = serialize_problem(ProblemFile.from_sequence(out_seq, metadata=pf.metadata))
    report = {
        "command": "solve",
        "kernel": {
            "grid": cfg.grid,
            "min_eigenvalue": gram.min_eigenvalue,
            "points": [[z.real, z.imag] for z in points],
            "psd": gram.is_psd,
            "tolerance_used": gram.tolerance_used,
        },
        "problem": product,
    }
    summary = [
        f"extended coefficients: 0..{out_seq.order}",
        f"kernel gram min eigenvalue: {gram.min_eigenvalue:+.6e} "
        f"(tolerance {gram.tolerance_used:.3e}, {cfg.grid} points, seed {cfg.seed})",
    ]
    _emit(args, report, summary, product)
    if not gram.is_psd:
        print(
            f"error: kernel Gram matrix is not PSD: min eigenvalue "
            f"{gram.min_eigenvalue:.6e} below -{gram.tolerance_used:.3e}",
            file=sys.stderr,
        )
        return EXIT_TOLERANCE
    return EXIT_OK


def _eval_series_from_file(pf, cfg):
    seq = pf.to_sequence()
    level = min(seq.order, cfg.truncation)
    return HerglotzSeries(seq.truncated(level), declared_radius=cfg.radius, certified=False)


def cmd_eval(args):
    cfg = _config(args)
    phi = _eval_series_from_file(load_problem(args.input), cfg)
    value = eval_series(phi, args.z)
    tail = series_tail_bound(phi, args.z)
    report = {
        "command": "eval",
        "tail_bound": tail,
        "value": value,
        "z": [args.z.real, args.z.imag],
    }
    lines = [
        f"value at z = {args.z}:",
        *_matrix_lines(value),
        f"truncation tail bound: {tail:.3e}",
    ]
    return _emit_value(args, report, lines)


def cmd_kernel(args):
    cfg = _config(args)
    phi = _eval_series_from_file(load_problem(args.input), cfg)
    value = kernel_value(phi, args.z, args.w)
    tail = series_tail_bound(phi, [args.z, args.w]).sum() / abs(1 - args.z * np.conj(args.w))
    report = {
        "command": "kernel",
        "tail_bound": tail,
        "value": value,
        "w": [args.w.real, args.w.imag],
        "z": [args.z.real, args.z.imag],
    }
    lines = [
        f"kernel at z = {args.z}, w = {args.w}:",
        *_matrix_lines(value),
        f"truncation tail bound: {tail:.3e}",
    ]
    return _emit_value(args, report, lines)


def cmd_reduce(args):
    cfg = _config(args)
    pf = load_problem(args.input)
    rf = reduce(pf.to_sequence(), tol=cfg.tol)
    rank = rf.t0.shape[0]
    product = canonical_json(
        {
            "block_dim": pf.block_dim,
            "d_imag": rf.d_imag,
            "rank": rank,
            "residuals": [float(r) for r in rf.residuals],
            "t0": rf.t0,
            "t_coefficients": rf.t_seq.coefficients if rf.t_seq is not None else [],
        }
    )
    summary = [f"rank: {rank}", f"max residual: {max(rf.residuals):.3e}"]
    _emit(args, {"command": "reduce", "reduced": product}, summary, product)
    return EXIT_OK


def cmd_generate(args):
    cfg = _config(args)
    if args.block_dim < 1 or args.state_dim < 1 or args.order < 0:
        raise ProblemFormatError("need block-dim >= 1, state-dim >= 1, order >= 0")
    rlz = random_realization(cfg.seed, args.block_dim, args.state_dim, zero_c=args.zero_c)
    seq = realization_coefficients(rlz, args.order)
    metadata = {
        "block_dim": str(args.block_dim),
        "generator": "numpy-pcg64",
        "order": str(args.order),
        "seed": str(cfg.seed),
        "state_dim": str(args.state_dim),
        "zero_c": "true" if args.zero_c else "false",
    }
    product = serialize_problem(ProblemFile.from_sequence(seq, metadata=metadata))
    summary = [f"generated 0..{args.order} (seed {cfg.seed})"]
    _emit(args, {"command": "generate", "problem": product}, summary, product)
    return EXIT_OK


@functools.cache
def _parser():
    # argparse parsers keep no state between parses, so one serves them all
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    # looked up at each call, so a wrapper that replaces a command function
    # in this module (a tracer's, say) is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (ProblemFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NotPsdError, RangeCompatibilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (
        DimensionError,
        NotHermitianError,
        FactorizationMismatchError,
        SingularBlockError,
        OutOfBallError,
        FixtureError,
        InsufficientDataError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
