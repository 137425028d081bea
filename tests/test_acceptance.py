"""Acceptance suite.

Every criterion is property- or oracle-based and runs at desk scale; each
test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
Tolerances are pinned here and nowhere else.
"""

import numpy as np
import pytest

from herglotz import (
    CoefficientSequence,
    HerglotzSeries,
    ProblemFile,
    assemble,
    central_step,
    connecting_isometry,
    cross_block_bound_check,
    eval_realization,
    eval_series,
    extend,
    kernel_finite_section,
    kernel_gram,
    kernel_value,
    minimal_factorization,
    parse_problem,
    positivity_profile,
    psd_report,
    random_realization,
    realization_coefficients,
    reduce,
    schur_split,
    serialize_problem,
    solve_cf,
)
from herglotz.cli import EXIT_OK, main

N_FIXTURES = 50
FIXTURE_ORDER = 8
SERIES_TRUNCATION = 256


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def sample_disk(rng, count, radius=0.9):
    return radius * np.sqrt(rng.uniform(0, 1, count)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, count)
    )


@pytest.fixture(scope="module")
def fixtures():
    out = []
    for seed in range(N_FIXTURES):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        h = int(rng.integers(1, 9))
        rlz = random_realization(seed, d, h)
        out.append((rlz, realization_coefficients(rlz, FIXTURE_ORDER)))
    return out


@pytest.fixture(scope="module")
def solve_outputs(fixtures):
    inputs = [
        CoefficientSequence.from_scalars([1, 0.5]),
        CoefficientSequence.from_scalars([1, 1]),
        CoefficientSequence.from_scalars([1]),
    ]
    for seed in (2, 5):  # scalar fixtures, truncated low
        rlz = random_realization(1000 + seed, 1, 4)
        inputs.append(realization_coefficients(rlz, 2))
    rlz = random_realization(1010, 2, 5)  # one 2x2 block fixture
    inputs.append(realization_coefficients(rlz, 2))
    return [solve_cf(seq, SERIES_TRUNCATION, eps=1e-8) for seq in inputs]


def test_realization_positivity_suite(fixtures):
    worst = min(
        rep.lower
        for _, seq in fixtures
        for rep in positivity_profile(seq, tol=1e-8)
    )
    report(
        "realization positivity suite",
        worst >= -1e-8,
        f"{N_FIXTURES} fixtures to order {FIXTURE_ORDER}, worst level eigenvalue {worst:+.3e}",
    )


def test_oracle_equivalence(fixtures):
    rng = np.random.default_rng(2024)
    points = sample_disk(rng, 16)
    worst_excess = -np.inf
    for seed, (rlz, _) in enumerate(fixtures):
        series = HerglotzSeries(realization_coefficients(rlz, SERIES_TRUNCATION))
        c_norm = np.linalg.norm(np.asarray(rlz.C), 2)
        for z in points:
            gap = np.linalg.norm(eval_realization(rlz, z) - eval_series(series, z), 2)
            bound = 2 * c_norm**2 * abs(z) ** (SERIES_TRUNCATION + 1) / (1 - abs(z)) + 1e-9
            worst_excess = max(worst_excess, gap - bound)
    report(
        "oracle equivalence",
        worst_excess <= 0,
        f"16 points x {N_FIXTURES} fixtures, worst gap minus bound {worst_excess:+.3e}",
    )


def test_scalar_closed_forms(solve_outputs):
    geometric = solve_outputs[0]
    got = np.real(geometric.seq.coefficients[:11, 0, 0])
    series_err = float(np.max(np.abs(got - 0.5 ** np.arange(11))))
    step_err = 0.0
    for eps in (1e-8, 1e-4, 1e-2):
        _, m2 = central_step(CoefficientSequence.from_scalars([1, 1]), eps)
        step_err = max(step_err, abs(complex(m2[0, 0]) - 1 / (1 + eps)))
    ok = series_err <= 1e-6 and step_err <= 1e-12
    report(
        "scalar closed forms",
        ok,
        f"coefficient error {series_err:.3e} (tol 1e-6), center error {step_err:.3e} (tol 1e-12)",
    )


def test_extension_closure():
    worst = np.inf
    for trial in range(25):
        rng = np.random.default_rng(9000 + trial)
        d = 1 if trial % 2 == 0 else 2
        h = int(rng.integers(d, 9))
        order = int(rng.integers(1, 4))
        seq = realization_coefficients(random_realization(9000 + trial, d, h), order)
        ext = extend(seq, 10, eps=1e-8)
        for n in range(len(ext)):
            worst = min(worst, np.linalg.eigvalsh(assemble(ext.truncated(n)).dense)[0])
    report(
        "extension closure",
        worst >= -1e-8,
        f"25 seeds extended 10 steps, worst prefix eigenvalue {worst:+.3e}",
    )


def test_kernel_positivity(solve_outputs):
    rng = np.random.default_rng(515)
    points = sample_disk(rng, 16)
    worst = min(kernel_gram(phi, points).min_eigenvalue for phi in solve_outputs)
    report(
        "kernel positivity",
        worst >= -1e-6,
        f"{len(solve_outputs)} central solutions, truncation {SERIES_TRUNCATION}, "
        f"worst Gram eigenvalue {worst:+.3e}",
    )


def test_finite_section_kernel_convergence():
    seq = CoefficientSequence.from_scalars(np.ones(41))
    errs = [
        abs(complex(kernel_finite_section(seq, 0.5, 0.5, n)[0, 0]) - 8.0)
        for n in range(1, 41)
    ]
    monotone = all(b <= a for a, b in zip(errs, errs[1:]))
    ok = monotone and errs[-1] <= 1e-3
    report(
        "finite-section kernel convergence",
        ok,
        f"monotone={monotone}, error at order 40 is {errs[-1]:.3e} (tol 1e-3)",
    )


def test_reduction_suite(fixtures):
    rng = np.random.default_rng(77)
    grid = sample_disk(rng, 16)
    pairs = list(zip(sample_disk(rng, 8), sample_disk(rng, 8)))
    worst_res = 0.0
    worst_t0 = 0.0
    worst_level = np.inf
    worst_compose = 0.0
    worst_kernel = 0.0
    for _, seq in fixtures:
        rf = reduce(seq, tol=1e-8)
        worst_res = max(worst_res, max(rf.residuals))
        r = rf.t0.shape[0]
        if rf.t_seq is None:
            continue
        worst_t0 = max(
            worst_t0, float(np.linalg.norm(rf.t_seq.coefficients[0] - np.eye(r)))
        )
        worst_level = min(
            worst_level, psd_report(assemble(rf.t_seq).dense, 1e-8).min_eigenvalue
        )
        phi = HerglotzSeries(seq)
        phi_red = HerglotzSeries(rf.t_seq)
        for z in grid:
            direct = eval_series(phi, z)
            composed = rf.d_imag + rf.t0.conj().T @ eval_series(phi_red, z) @ rf.t0
            worst_compose = max(worst_compose, float(np.linalg.norm(direct - composed)))
        for z, w in pairs:
            lhs = kernel_value(phi, z, w)
            rhs = rf.t0.conj().T @ kernel_value(phi_red, z, w) @ rf.t0
            worst_kernel = max(worst_kernel, float(np.linalg.norm(lhs - rhs)))
    ok = (
        worst_res <= 1e-8
        and worst_t0 <= 1e-10
        and worst_level >= -1e-8
        and worst_compose <= 1e-6
        and worst_kernel <= 1e-6
    )
    report(
        "reduction suite",
        ok,
        f"residual {worst_res:.3e}, base coefficient vs identity {worst_t0:.3e}, "
        f"reduced Toeplitz eigenvalue {worst_level:+.3e}, composition gap "
        f"{worst_compose:.3e}, kernel factorization gap {worst_kernel:.3e}",
    )


def test_factorization_isometry_suite():
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(4000 + trial)
        n = int(rng.integers(2, 9))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = g.conj().T @ g + 0.05 * np.eye(n)
        fact = minimal_factorization(a)
        t_prime = np.linalg.cholesky(a).conj().T
        v = connecting_isometry(fact, t_prime)
        r = fact.rank
        worst = max(
            worst,
            float(np.linalg.norm(v.conj().T @ v - np.eye(r))),
            float(np.linalg.norm(v @ v.conj().T - np.eye(r))),
            float(np.linalg.norm(v @ fact.T - t_prime)),
        )
    report(
        "factorization isometry suite",
        worst <= 1e-8,
        f"50 pairs of independent minimal factors, worst defect {worst:.3e}",
    )


def test_block_ldu_reconstruction():
    worst_ratio = 0.0
    done = 0
    trial = 0
    while done < 100:
        rng = np.random.default_rng(6000 + trial)
        trial += 1
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, n))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        split = schur_split(g, k)
        if split.leading_cond > 1e6:
            continue
        done += 1
        recon = split.lower_factor @ split.middle_factor @ split.upper_factor
        err = np.linalg.norm(g - recon)
        worst_ratio = max(
            worst_ratio, err / (np.linalg.norm(g) * split.leading_cond)
        )
    report(
        "block LDU reconstruction",
        worst_ratio <= 1e-10,
        f"100 well-conditioned splits, worst scaled error {worst_ratio:.3e}",
    )


def test_cross_block_cauchy_schwarz(fixtures):
    rng = np.random.default_rng(8080)
    slacks = []
    for _, seq in fixtures[:40]:
        bt = assemble(seq)
        d = bt.block_dim
        samples = []
        for _ in range(5):
            l, j = rng.integers(0, bt.num_blocks, 2)
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            samples.append(((int(l), int(j)), v, w))
        slacks.extend(cross_block_bound_check(bt, samples, tol=1e-8))
    worst = min(slacks)
    report(
        "cross-block Cauchy-Schwarz",
        worst >= -1e-9,
        f"{len(slacks)} sampled slacks, worst {worst:+.3e}",
    )


def test_cli_round_trip_and_determinism(tmp_path, capsys, fixtures):
    ok = True
    details = []
    for seed in range(5):
        a = tmp_path / f"a{seed}.json"
        b = tmp_path / f"b{seed}.json"
        args = [
            "generate", "--seed", str(seed), "--block-dim", str(1 + seed % 3),
            "--state-dim", str(2 + seed), "--order", "6",
        ]
        assert main(args + ["--output", str(a)]) == EXIT_OK
        assert main(args + ["--output", str(b)]) == EXIT_OK
        capsys.readouterr()
        if a.read_bytes() != b.read_bytes():
            ok = False
            details.append(f"seed {seed} not deterministic")
        text = a.read_text()
        if serialize_problem(parse_problem(text)) != text:
            ok = False
            details.append(f"seed {seed} round trip broken")
    for _, seq in fixtures[:5]:
        text = serialize_problem(ProblemFile.from_sequence(seq))
        if serialize_problem(parse_problem(text)) != text:
            ok = False
            details.append("fixture round trip broken")
    report(
        "file round-trip and determinism",
        ok,
        "; ".join(details) if details else "5 generated seeds and 5 fixture files identical",
    )
