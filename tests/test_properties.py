"""Property tests for the batched evaluation kernel over block dimensions
1-3, orders 0-12 and 1-40 points, for the interlacing positivity profile
against per-level reports, for the windowed assembly against a
per-diagonal one, for the one-decomposition data check of every entry
point against a per-level scan, for the block-Levinson extension against a
per-step re-built chain, and for the Cholesky check of a chained level
against the eigenvalue check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herglotz import (
    CoefficientSequence,
    HerglotzSeries,
    NotPsdError,
    SingularBlockError,
    assemble,
    central_step,
    certified_series,
    eval_series,
    extend,
    parametrized_step,
    positivity_profile,
    psd_report,
    random_realization,
    realization_coefficients,
    series_tail_bound,
)
from herglotz.extension import _certify, _certify_chained
from herglotz.linalg import hermitian_split
from herglotz.series import _gram_matrix

RADIUS = 0.9
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def series(draw):
    d = draw(st.integers(1, 3))
    order = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.standard_normal((order + 1, d, d)) + 1j * rng.standard_normal((order + 1, d, d))
    # a heavier constant term makes a mix of PSD and non-PSD levels
    coeffs[0] += draw(st.floats(0.0, 8.0)) * np.eye(d)
    return HerglotzSeries(CoefficientSequence(coeffs), declared_radius=RADIUS)


# radii stay below the declared radius so rounding in r e^{i theta} cannot
# push a point outside it
points = st.lists(
    st.tuples(st.floats(0.0, 0.89), st.floats(0.0, 2 * np.pi)), min_size=1, max_size=40
).map(lambda polar: np.array([r * np.exp(1j * t) for r, t in polar]))


def scale(phi):
    return float(np.abs(phi.seq.coefficients).sum())


@PROPERTY
@given(series(), points)
def test_batched_evaluation_matches_pointwise(phi, pts):
    batched = eval_series(phi, pts)
    stacked = np.stack([eval_series(phi, z) for z in pts])
    assert batched.shape == stacked.shape
    np.testing.assert_allclose(batched, stacked, rtol=0, atol=1e-13 * scale(phi))
    bounds = series_tail_bound(phi, pts)
    np.testing.assert_allclose(bounds, [series_tail_bound(phi, z) for z in pts], rtol=1e-14)


@PROPERTY
@given(series(), st.floats(0.0, 0.89), st.floats(0.0, 2 * np.pi))
def test_scalar_evaluation_is_the_power_sum(phi, r, theta):
    z = complex(r * np.exp(1j * theta))
    coeffs = phi.seq.coefficients
    powers = z ** np.arange(1, phi.seq.order + 1)
    expected = coeffs[0] + 2 * np.tensordot(powers, coeffs[1:], axes=(0, 0))
    assert np.array_equal(eval_series(phi, z), expected)


@PROPERTY
@given(series(), points)
def test_dense_gram_blocks_are_the_pointwise_kernel(phi, pts):
    d = phi.seq.block_dim
    m = len(pts)
    dense = _gram_matrix(phi, pts)
    values = [eval_series(phi, z) for z in pts]
    expected = np.block(
        [
            [(values[l] + values[j].conj().T) / (1 - pts[l] * np.conj(pts[j])) for j in range(m)]
            for l in range(m)
        ]
    )
    assert dense.shape == (m * d, m * d)
    np.testing.assert_allclose(dense, expected, rtol=0, atol=1e-13 * scale(phi) / (1 - 0.89**2))


@PROPERTY
@given(series(), points, st.integers(0, 2**32 - 1))
def test_compressed_gram_is_the_dense_gram_paired(phi, pts, seed):
    d = phi.seq.block_dim
    m = len(pts)
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    dense = _gram_matrix(phi, pts)
    compressed = _gram_matrix(phi, pts, vecs)
    blocks = dense.reshape(m, d, m, d)
    expected = np.array(
        [[vecs[l].conj() @ blocks[l, :, j, :] @ vecs[j] for j in range(m)] for l in range(m)]
    )
    size = scale(phi) * float(np.abs(vecs).max()) ** 2 / (1 - 0.89**2)
    np.testing.assert_allclose(compressed, expected, rtol=0, atol=1e-13 * size)


def reference_assemble(seq):
    # one fancy assignment per block diagonal
    coeffs, d, n = seq.coefficients, seq.block_dim, len(seq)
    grid = np.zeros((n, d, n, d), dtype=complex)
    rows = np.arange(n)
    grid[rows, :, rows, :] = hermitian_split(coeffs[0])[0]
    for k in range(1, n):
        rows = np.arange(n - k)
        grid[rows, :, rows + k, :] = coeffs[k]
        grid[rows + k, :, rows, :] = coeffs[k].conj().T
    return grid.reshape(n * d, n * d)


@PROPERTY
@given(series())
def test_assemble_is_the_per_diagonal_assembly(phi):
    seq = phi.seq
    dense = assemble(seq).dense
    expected = reference_assemble(seq)
    assert dense.shape == expected.shape
    assert dense.tobytes() == expected.tobytes()
    # exactly Hermitian, so no check needs to take its Hermitian part again
    assert (dense == dense.conj().T).all()
    assert dense.flags.writeable and dense.flags.c_contiguous
    assert not np.shares_memory(dense, seq.coefficients)


def check_outcome(check, *args):
    # None when the check passes, else the type and message it raises
    try:
        check(*args)
    except (NotPsdError, SingularBlockError) as err:
        return type(err), str(err)
    return None


def reference_certification(seq, tol):
    # the per-level scan: every level assembled and checked on its own; the
    # message certified_series raises, or None when every level passes
    reports = [psd_report(assemble(seq.truncated(n)).dense, tol) for n in range(len(seq))]
    for n, report in enumerate(reports):
        if not report.is_psd:
            return f"truncation level {n} is not PSD (min eigenvalue {report.min_eigenvalue:.3e})"
    return None


@st.composite
def certification_problems(draw):
    d = draw(st.integers(1, 3))
    order = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # state dimensions below (order + 1) d give rank-deficient data, whose
    # smallest eigenvalues sit at rounding level and straddle -tol
    rlz = random_realization(rng, d, int(rng.integers(1, 9)))
    coeffs = realization_coefficients(rlz, order).coefficients * 10.0 ** draw(st.integers(-12, 12))
    # a perturbed last coefficient, relative to the data's size, makes a
    # mix of passing and failing top levels
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    size = float(np.abs(coeffs).max())
    coeffs[-1] += draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-2])) * size * g
    return CoefficientSequence(coeffs)


@settings(max_examples=300, deadline=None)
@given(certification_problems(), st.sampled_from([1e-9, 1e-6]))
def test_certification_matches_the_per_level_scan(seq, tol):
    # the extension entry points check the data as certified_series does;
    # eps = 1 keeps their shift check from failing first
    expected = reference_certification(seq, tol)
    if expected is None:
        assert certified_series(seq, tol=tol).certified
    else:
        with pytest.raises(NotPsdError) as info:
            certified_series(seq, tol=tol)
        assert str(info.value) == expected
    for check in (
        lambda: extend(seq, 1, eps=1, tol=tol),
        lambda: central_step(seq, 1, tol=tol),
    ):
        outcome = check_outcome(check)
        if expected is None:
            assert outcome is None or outcome[0] is not NotPsdError
        else:
            assert outcome == (NotPsdError, expected)


def reference_extend(seq, steps, eps, contractions=None, tol=1e-9):
    # one step at a time on the re-built sequence: a dense check and the
    # ball of the whole prefix for every new coefficient
    current = seq
    for k in range(steps):
        step, x = central_step(current, eps, tol=tol if k == 0 else max(tol, eps))
        if contractions is not None:
            x = parametrized_step(step, contractions[k])
        current = CoefficientSequence(np.concatenate([current.coefficients, x[None]]))
    return current


@st.composite
def extension_problems(draw):
    d = draw(st.integers(1, 3))
    order = draw(st.integers(0, 8))
    steps = draw(st.integers(0, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # state dimensions below (order + 1) d give rank-deficient data
    rlz = random_realization(rng, d, int(rng.integers(d, 9)))
    seq = realization_coefficients(rlz, order)
    contractions = None
    if draw(st.booleans()):
        contractions = []
        for _ in range(steps):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            contractions.append(rng.uniform(0.0, 0.5) * g / np.linalg.norm(g, 2))
    return seq, steps, contractions


@PROPERTY
@given(extension_problems(), st.sampled_from([1e-8, 1e-3]))
def test_extend_matches_the_per_step_reference(problem, eps):
    seq, steps, contractions = problem
    got = extend(seq, steps, eps=eps, contractions=contractions).coefficients
    expected = reference_extend(seq, steps, eps, contractions).coefficients
    assert got.shape == expected.shape
    assert got[: len(seq)].tobytes() == seq.coefficients.tobytes()
    size = float(np.linalg.norm(expected, 2, axis=(1, 2)).max())
    rel = 1e-10
    if contractions is not None:
        # a ball point X_c + S^{1/2} G alpha^{-1/2} is as sensitive as the
        # shifted data are ill-conditioned (condition ~1e10 for rank-deficient
        # data at eps = 1e-8), and the reference itself is only accurate to
        # about cond * machine eps
        shifted = np.linalg.eigvalsh(assemble(CoefficientSequence(expected)).dense) + eps
        rel += 4 * shifted[-1] / shifted[0] * np.finfo(float).eps
    np.testing.assert_allclose(got, expected, rtol=0, atol=rel * size)


@st.composite
def scaled_levels(draw):
    d = draw(st.integers(1, 3))
    blocks = draw(st.integers(1, 41))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # rank-deficient realization data: the smallest eigenvalues sit at
    # rounding level, within the interlacing margin of zero, and the
    # smallest shifted eigenvalue near eps, which the rounding margin of the
    # Cholesky check exceeds at large scales and long levels, so the
    # eigenvalue check runs there
    rlz = random_realization(rng, d, int(rng.integers(1, 9)))
    coeffs = realization_coefficients(rlz, blocks - 1).coefficients
    coeffs = coeffs * 10.0 ** draw(st.integers(-12, 12))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    size = float(np.abs(coeffs).max())
    coeffs[-1] += draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-2])) * size * g
    return CoefficientSequence(coeffs)


@PROPERTY
@given(scaled_levels(), st.sampled_from([1e-9, 1e-6, 1e-2]))
def test_profile_brackets_the_per_level_reports(seq, tol):
    # decomposed levels are bitwise the per-level report, interlaced ones
    # hold it in their bracket, and every verdict is the per-level one; the
    # first failing level, which certified_series names, is decomposed
    profile = positivity_profile(seq, tol)
    assert len(profile) == len(seq)
    assert profile[0].lower == profile[0].upper and profile[-1].lower == profile[-1].upper
    failing = [level for level in profile if not level.is_psd]
    assert not failing or failing[0].lower == failing[0].upper
    for n, level in enumerate(profile):
        reference = psd_report(assemble(seq.truncated(n)).dense, tol)
        if level.lower == level.upper:
            assert level.lower == reference.min_eigenvalue
        assert level.lower <= reference.min_eigenvalue <= level.upper
        assert level.is_psd == reference.is_psd
        assert level.is_strictly_positive == reference.is_strictly_positive
        assert level.tolerance_used == tol


@settings(max_examples=300, deadline=None)
@given(scaled_levels(), st.sampled_from([1e-8, 1e-3, 1.0]), st.sampled_from([1e-9, 1e-6]))
def test_chained_level_check_matches_the_eigenvalue_check(seq, eps, tol):
    tol = max(tol, eps)
    expected = check_outcome(_certify, seq, eps, tol)
    assert check_outcome(_certify_chained, seq, eps, tol) == expected
