"""Property tests for the batched evaluation kernel over block dimensions
1-3, orders 0-12 and 1-40 points, for its accuracy against a long-double
power sum, for the compressed kernel Gram (block dimensions 1-4) against
the block-tensor contraction, for the interlacing positivity profile
against per-level reports, for the windowed assembly against a
per-diagonal one and, bit for bit, against a ``sliding_window_view``
construction (with the block reversal against an index gather), for the
data check of every entry point (the shifted Cholesky certificate, then
the eigenvalue check) against a per-level scan, for the one-``eigh`` data
check of every extension entry point against the eigenvalue check where
lambda_min(T_N) sits within a few rounding margins of -tol, for the
block-Levinson extension against a per-step re-built chain, for
ill-conditioned parametrized chains (a library error, or a result whose
Toeplitz matrix stays above -eps, never a non-finite coefficient), for the Cholesky check of a chained level
against the eigenvalue check, and for the banded certificate of the
central chain: its bound never exceeds the computed smallest eigenvalue
of the output, and ``extend`` keeps its outcome with the certificate
switched off; for every output of the shifted chain, central or
parametrized, of one step or many: it passes the dense eigenvalue check;
for the exact extension of determinate data: it is the
generating realization, its measure certificate never exceeds the computed
smallest eigenvalue of the output, and perturbed data are either certified
on it or keep the shifted chain's outcome; for the stacked ``reduce``
against a per-coefficient reduction, bit for bit; and for the orthogonal
Procrustes isometry of ``connecting_isometry``: an isometry to rounding
whose residual is never above that of the polar factor of the
least-squares map T' T^+, on factors of condition up to 1e12."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from herglotz import (
    CoefficientSequence,
    HerglotzSeries,
    NotPsdError,
    SingularBlockError,
    assemble,
    central_step,
    certified_series,
    connecting_isometry,
    eval_series,
    extend,
    parametrized_step,
    positivity_profile,
    RangeCompatibilityError,
    psd_report,
    random_realization,
    realization_coefficients,
    reduce,
    reverse_blocks,
    series_tail_bound,
)
from herglotz import extension
from herglotz.extension import _certify, _certify_chained, _chained_tau
from herglotz.linalg import hermitian_split, minimal_factorization
from herglotz.series import _gram_matrix
from herglotz.toeplitz import _certified_data, _interlacing_margin

RADIUS = 0.9
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def series(draw, max_dim=3, max_order=12):
    d = draw(st.integers(1, max_dim))
    order = draw(st.integers(0, max_order))
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


def long_double_power_sum(coeffs, z):
    # M_0 + 2 sum z^n M_n in extended precision: the reference's own
    # rounding is about 2^-11 of the float64 bound below
    c = coeffs.astype(np.clongdouble)
    powers = np.clongdouble(z) ** np.arange(1, len(coeffs))
    return c[0] + 2 * np.einsum("n,nij->ij", powers, c[1:])


@PROPERTY
@given(series(max_order=300), st.floats(0.0, 0.89), st.floats(0.0, 2 * np.pi))
def test_evaluation_is_the_power_sum_within_its_rounding_bound(phi, r, theta):
    # the bound stated by eval_series, entrywise: 4 (T + 2) u (|M_0| + 2
    # sum |z|^n |M_n|); powers off by one exponent miss it by orders of
    # magnitude at any z away from 0
    z = complex(r * np.exp(1j * theta))
    coeffs = phi.seq.coefficients
    order = phi.seq.order
    magnitudes = np.abs(z) ** np.arange(1, order + 1)
    size = np.abs(coeffs[0]) + 2 * np.tensordot(magnitudes, np.abs(coeffs[1:]), axes=(0, 0))
    bound = 4 * (order + 2) * np.finfo(float).eps / 2 * size
    error = np.abs(eval_series(phi, z) - long_double_power_sum(coeffs, z))
    assert (error <= bound).all()


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
@given(series(max_dim=4), points, st.integers(0, 2**32 - 1))
def test_compressed_gram_is_the_dense_gram_paired(phi, pts, seed):
    d = phi.seq.block_dim
    m = len(pts)
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    compressed = _gram_matrix(phi, pts, vecs)
    # the reference pairs each block of the (m, d, m, d) block tensor
    blocks = _gram_matrix(phi, pts).reshape(m, d, m, d)
    expected = np.einsum("la,lajb,jb->lj", vecs.conj(), blocks, vecs)
    assert compressed.shape == (m, m)
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


def windowed_assemble(seq):
    # block row i is the window of the row (M_{n-1}* .. M_1*, H_0, M_1 ..
    # M_{n-1}) starting at block n - 1 - i, cut by ``sliding_window_view``
    coeffs, d, n = seq.coefficients, seq.block_dim, len(seq)
    row = np.empty((d, 2 * n - 1, d), dtype=complex)
    row[:, n - 1] = hermitian_split(coeffs[0])[0]
    row[:, n:] = coeffs[1:].transpose(1, 0, 2)
    row[:, : n - 1] = coeffs[:0:-1].conj().transpose(2, 0, 1)
    windows = sliding_window_view(row.reshape(d, (2 * n - 1) * d), n * d, axis=1)
    dense = np.empty((n * d, n * d), dtype=complex)
    dense.reshape(n, d, n * d)[:] = windows[:, (n - 1) * d :: -d].transpose(1, 0, 2)
    return dense


@PROPERTY
@given(st.integers(1, 40), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_assemble_and_reversal_are_the_windowed_and_gathered_ones(n, d, seed):
    rng = np.random.default_rng(seed)
    seq = CoefficientSequence(
        rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    )
    dense = assemble(seq).dense
    assert dense.tobytes() == windowed_assemble(seq).tobytes()
    # the block anti-diagonal permutation as one index gather
    idx = np.concatenate([np.arange((n - 1 - i) * d, (n - i) * d) for i in range(n)])
    for matrix in (dense, dense.real):
        reversed_ = reverse_blocks(matrix, d)
        assert reversed_.tobytes() == matrix[np.ix_(idx, idx)].tobytes()
        assert reversed_.dtype == matrix.dtype and not np.shares_memory(reversed_, matrix)


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


@st.composite
def borderline_data(draw):
    # realization data (full-rank or rank-deficient, scaled by 10^k) with
    # M_0 shifted so that lambda_min(T_N) lands within four interlacing
    # margins of -tol on either side, with that tol
    d = draw(st.integers(1, 3))
    order = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rlz = random_realization(rng, d, int(rng.integers(1, (order + 1) * d + 3)))
    coeffs = realization_coefficients(rlz, order).coefficients * 10.0 ** draw(st.integers(-6, 6))
    tol = draw(st.sampled_from([1e-12, 1e-9, 1e-6]))
    eigs = np.linalg.eigvalsh(assemble(CoefficientSequence(coeffs)).dense)
    offset = draw(st.floats(-4.0, 4.0)) * _interlacing_margin(eigs)
    coeffs[0] += (-tol - eigs[0] + offset) * np.eye(d)
    return CoefficientSequence(coeffs), tol


class DataPassed(Exception):
    pass


def zero_contraction_chain(seq, tol):
    return extend(seq, 3, contractions=[np.zeros((seq.block_dim,) * 2)] * 3, tol=tol)


ENTRY_POINTS = {
    "central chain": lambda seq, tol: extend(seq, 3, tol=tol),
    "zero-contraction chain": zero_contraction_chain,
    "central_step": lambda seq, tol: central_step(seq, 1e-8, tol=tol),
}


@settings(max_examples=600, deadline=None)
@given(borderline_data(), st.sampled_from(sorted(ENTRY_POINTS)))
def test_central_extension_decides_the_data_as_the_eigenvalue_check(problem, entry):
    # every extension entry point decides the data from one eigh of T_N:
    # its verdict and message are exactly those of the eigenvalue check.
    # Everything after the data check (the determinate path of the central
    # chain, the ball state of the others) is cut off by a sentinel
    seq, tol = problem
    expected = check_outcome(_certified_data, seq, tol)
    with mock.patch.object(
        extension, "_determinate_extension", side_effect=DataPassed
    ), mock.patch.object(extension, "_ball_state", side_effect=DataPassed):
        try:
            ENTRY_POINTS[entry](seq, tol)
            got = "returned"
        except DataPassed:
            got = None
        except NotPsdError as err:
            got = type(err), str(err)
    assert got == expected


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
    # state dimensions below (order + 1) d give rank-deficient data, and
    # those up to order d determinate data
    rlz = random_realization(rng, d, int(rng.integers(d, 9)))
    seq = realization_coefficients(rlz, order)
    contractions = None
    if draw(st.booleans()):
        contractions = []
        for _ in range(steps):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            contractions.append(rng.uniform(0.0, 0.5) * g / np.linalg.norm(g, 2))
    return seq, steps, contractions, rlz


def past_condition(seq):
    # the condition number of the past block P = (F_0 ... F_{N-1}) of the
    # minimal factor T_N = F* F, from the eigenpairs of T_N above the
    # rounding margin
    dense = assemble(seq).dense
    w, v = np.linalg.eigh(dense)
    r = int(np.count_nonzero(w > 4 * len(w) * np.finfo(float).eps * np.abs(w).max()))
    factor = (v[:, len(w) - r :] * np.sqrt(w[len(w) - r :])).conj().T
    s = np.linalg.svd(factor[:, : -seq.block_dim], compute_uv=False)
    return s[0] / s[-1]


# the determinate extension is within REALIZATION_C * L * kappa * u of the
# generating realization, kappa = ``past_condition`` and L the horizon
# (observed at most 55 over 18000 draws of ``determinate_problems``)
REALIZATION_C = 1000


def assert_is_the_realization(coeffs, rlz, seq, scale=1.0):
    # M_1 .. M_L against the realization's own coefficients (M_0 is the
    # data's, bitwise)
    last = len(coeffs) - 1
    expected = realization_coefficients(rlz, last).coefficients * scale
    size = float(np.abs(expected).max())
    bound = REALIZATION_C * last * past_condition(seq) * np.finfo(float).eps
    np.testing.assert_allclose(coeffs[1:], expected[1:], rtol=0, atol=bound * size)


@PROPERTY
@given(extension_problems(), st.sampled_from([1e-8, 1e-3]))
def test_extend_matches_the_per_step_reference(problem, eps):
    # the per-step eps chain for chains and for data that are not
    # determinate; determinate data (state dimension at most N d) extend
    # centrally as their realization
    seq, steps, contractions, rlz = problem
    got = extend(seq, steps, eps=eps, contractions=contractions).coefficients
    assert got[: len(seq)].tobytes() == seq.coefficients.tobytes()
    if contractions is None and steps and rlz.V.shape[0] <= seq.order * seq.block_dim:
        assert got.shape == (len(seq) + steps, seq.block_dim, seq.block_dim)
        assert_is_the_realization(got, rlz, seq)
        return
    expected = reference_extend(seq, steps, eps, contractions).coefficients
    assert got.shape == expected.shape
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
def scaled_parametrized_chains(draw):
    # realization data of full rank or short of it by one or two, scaled by
    # 10^k, whose shifted matrices at eps = 1e-8 reach condition ~1e14, with
    # a chain of 12 contractions, each zero or of norm ``size``.  About one
    # such chain in a hundred, of block dimension 2 or 3, rank deficiency
    # one or two and 10^k >= 1e3, meets an alpha^{-1} whose Hermitian part
    # is not positive definite; more are driven off the ball by rounding
    d = draw(st.integers(1, 3))
    order = draw(st.integers(1, 4))
    steps = 12
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = (order + 1) * d - draw(st.sampled_from([0, 1, 2]))
    rlz = random_realization(rng, d, max(rank, 1))
    coeffs = realization_coefficients(rlz, order).coefficients * 10.0 ** draw(st.integers(-6, 6))
    size = draw(st.sampled_from([0.5, 0.9]))
    contractions = []
    for _ in range(steps):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        contractions.append(size * rng.integers(0, 2) * g / np.linalg.norm(g, 2))
    return CoefficientSequence(coeffs), contractions


@settings(max_examples=500, deadline=None)
@given(scaled_parametrized_chains())
def test_parametrized_chains_never_produce_non_finite_coefficients(problem):
    # an ill-conditioned chain returns its extension or raises a library
    # error; it never leaks a numpy warning (the suite's filter turns one
    # into an error) or LinAlgError, nor blames the data for a non-finite
    # coefficient of its own making.  What it returns keeps the -eps
    # guarantee of ``extend`` (-max(tol, eps) at the default tol = 1e-9)
    seq, contractions = problem
    try:
        ext = extend(seq, len(contractions), eps=1e-8, contractions=contractions)
    except (NotPsdError, SingularBlockError) as err:
        assert "non-finite" not in str(err)
        return
    assert ext.coefficients[: len(seq)].tobytes() == seq.coefficients.tobytes()
    assert np.linalg.eigvalsh(assemble(ext).dense)[0] >= -max(1e-9, 1e-8)


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
    tau = _chained_tau(seq.coefficients, eps)
    assert check_outcome(_certify_chained, seq, eps, tol, tau) == expected


@st.composite
def central_chains(draw):
    d = draw(st.integers(1, 3))
    order = draw(st.integers(0, 12))
    steps = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # rank-deficient realization data, scaled, and some of it perturbed
    rlz = random_realization(rng, d, int(rng.integers(1, 9)))
    coeffs = realization_coefficients(rlz, order).coefficients * 10.0 ** draw(st.integers(-12, 12))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    size = float(np.abs(coeffs).max())
    coeffs[-1] += draw(st.sampled_from([0.0, 0.0, 1e-12, 1e-6, 1e-2])) * size * g
    return CoefficientSequence(coeffs), steps


def extend_outcome(seq, steps, eps):
    # the coefficient bytes of a central extension, or the type and message
    # of the error it raises
    try:
        return extend(seq, steps, eps=eps).coefficients.tobytes()
    except (NotPsdError, SingularBlockError) as err:
        return type(err), str(err)


def chain_outcome(seq, steps, eps):
    # ``extend_outcome`` with the determinate path switched off: the shifted
    # chain's outcome
    with mock.patch.object(extension, "_determinate_extension", return_value=None):
        return extend_outcome(seq, steps, eps)


@settings(max_examples=100, deadline=None)
@given(central_chains(), st.sampled_from([1e-12, 1e-8, 1e-3, 1.0]))
def test_banded_certificate_is_sound_and_keeps_the_outcome(chain, eps):
    # on the shifted chain, which determinate data here would skip
    seq, steps = chain
    with mock.patch.object(extension, "_banded_bound", return_value=-np.inf):
        expected = chain_outcome(seq, steps, eps)
    assert chain_outcome(seq, steps, eps) == expected
    try:
        dense, eigs, _, margin = extension._decomposed_data(seq, eps, 1e-9)
        forward, _, _, alpha_inv, _ = extension._ball_state(seq, eps, dense, eigs)
    except (NotPsdError, SingularBlockError):
        return
    # the band recursion M_m = sum_j M_{m-j} a_j, one block at a time, to the
    # whole output M_0 .. M_L, L = N + steps
    n, d = len(seq), seq.block_dim
    coeffs = list(seq.coefficients)
    for _ in range(steps):
        terms = (coeffs[-j] @ forward[(j - 1) * d : j * d] for j in range(1, n))
        coeffs.append(sum(terms, np.zeros((d, d), dtype=complex)))
    level = CoefficientSequence(np.array(coeffs))
    bound = extension._banded_bound(level.coefficients, forward, alpha_inv, eigs, margin, eps)
    dense = assemble(level).dense
    m = dense.shape[0]
    exact = np.linalg.eigvalsh(eps * np.eye(m) + dense)
    assert bound <= exact[0] + 2 * m * np.finfo(float).eps * max(-exact[0], exact[-1])


@st.composite
def shifted_chains(draw, central):
    # realization data of full rank or short of it by one or two, scaled by
    # 10^k, with a chain of one step (as often as any other count) up to 60;
    # a parametrized chain takes contractions each zero or of norm 0.5 or 0.9
    d = draw(st.integers(1, 3))
    order = draw(st.integers(0, 8))
    steps = draw(st.one_of(st.just(1), st.integers(1, 60)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = (order + 1) * d - draw(st.sampled_from([0, 1, 2]))
    rlz = random_realization(rng, d, max(rank, 1))
    coeffs = realization_coefficients(rlz, order).coefficients * 10.0 ** draw(st.integers(-6, 6))
    if central:
        return CoefficientSequence(coeffs), steps, None
    size = draw(st.sampled_from([0.5, 0.9]))
    contractions = []
    for _ in range(steps):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        contractions.append(size * rng.integers(0, 2) * g / np.linalg.norm(g, 2))
    return CoefficientSequence(coeffs), steps, contractions


@pytest.mark.parametrize("central", [True, False])
@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([1e-14, 1e-8, 1e-3]), st.sampled_from([1e-9, 1e-6]))
def test_every_shifted_chain_output_passes_the_eigenvalue_check(central, data, eps, tol):
    # whatever the shifted chain returns, central or parametrized, of one
    # step or many, passes the dense eigenvalue check of its whole output
    seq, steps, contractions = data.draw(shifted_chains(central))
    with mock.patch.object(extension, "_determinate_extension", return_value=None):
        try:
            out = extend(seq, steps, eps=eps, contractions=contractions, tol=tol)
        except (NotPsdError, SingularBlockError):
            return
    assert out.coefficients[: len(seq)].tobytes() == seq.coefficients.tobytes()
    _certify(out, eps, max(tol, eps))


@st.composite
def determinate_problems(draw, max_horizon=500, perturb=False):
    # rank-deficient realization data with state dimension at most N d,
    # hence determinate, scaled by 10^k, with their horizon; ``perturb``
    # moves the last coefficient by a relative 1e-12 .. 1e-2
    d = draw(st.integers(1, 3))
    order = draw(st.integers(1, 10))
    horizon = draw(st.integers(order + 1, max_horizon))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rlz = random_realization(rng, d, int(rng.integers(1, order * d + 1)))
    scale = 10.0 ** draw(st.integers(-12, 12))
    coeffs = realization_coefficients(rlz, order).coefficients * scale
    if perturb:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        size = float(np.abs(coeffs).max())
        coeffs[-1] += draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-2])) * size * g
    return CoefficientSequence(coeffs), horizon, rlz, scale


def determinate_extension(seq, horizon, tol):
    data = extension._decomposed_data(seq, 1e-8, tol)
    return extension._determinate_extension(seq, *data, horizon - seq.order)


@PROPERTY
@given(determinate_problems())
def test_determinate_data_extend_as_their_realization(problem):
    seq, horizon, rlz, scale = problem
    exact = determinate_extension(seq, horizon, 1e-9 * scale)
    assert exact is not None
    coeffs, _ = exact
    assert coeffs[: len(seq)].tobytes() == seq.coefficients.tobytes()
    assert_is_the_realization(coeffs, rlz, seq, scale)


@PROPERTY
@given(
    st.one_of(
        determinate_problems(max_horizon=120),
        determinate_problems(max_horizon=120, perturb=True),
    )
)
def test_measure_certificate_is_sound(problem):
    # -beta bounds the smallest eigenvalue of the output's T_L, up to the
    # rounding of the eigenvalue computation, also where a perturbation
    # leaves the data nearly determinate and beta large
    seq, horizon, _, scale = problem
    try:
        exact = determinate_extension(seq, horizon, 1e-9 * scale)
    except NotPsdError:
        return
    if exact is None:
        return
    coeffs, beta = exact
    eigs = np.linalg.eigvalsh(assemble(CoefficientSequence(coeffs)).dense)
    rounding = 2 * len(eigs) * np.finfo(float).eps * max(-eigs[0], eigs[-1])
    assert -beta <= eigs[0] + rounding


@settings(max_examples=100, deadline=None)
@given(determinate_problems(max_horizon=150, perturb=True), st.sampled_from([1e-8, 1e-3]))
def test_perturbed_data_are_certified_or_keep_the_chain_outcome(problem, eps):
    # a perturbed last coefficient: extend either returns the determinate
    # extension, certified within max(tol, eps), or exactly what the
    # shifted chain returns or raises
    seq, horizon, _, _ = problem
    steps = horizon - seq.order
    got = extend_outcome(seq, steps, eps)
    if got == chain_outcome(seq, steps, eps):
        return
    coeffs, beta = extension._determinate_extension(
        seq, *extension._decomposed_data(seq, eps, 1e-9), steps
    )
    assert beta <= max(1e-9, eps)
    assert got == coeffs.tobytes()


@st.composite
def reduction_problems(draw):
    d = draw(st.integers(1, 4))
    order = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # state dimensions below d make Re M_0 rank-deficient, where a
    # perturbation can leave its range
    rlz = random_realization(rng, d, draw(st.integers(1, d + 2)))
    coeffs = realization_coefficients(rlz, order).coefficients.copy()
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    size = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-2]))
    coeffs[draw(st.integers(0, order))] += size * g
    return CoefficientSequence(coeffs)


def reference_reduction(seq, tol):
    # one coefficient at a time: t_j = compress M_j compress* and its
    # residual, raising for the first coefficient over tol
    h0 = hermitian_split(seq.coefficients[0])[0]
    t0 = minimal_factorization(h0, tol_rank=1e-10).T
    compress = np.linalg.pinv(t0).conj().T
    reduced, residuals = [], []
    for j, target in enumerate([h0, *seq.coefficients[1:]]):
        tj = compress @ target @ compress.conj().T
        res = float(np.linalg.norm(target - t0.conj().T @ tj @ t0))
        if res > tol:
            raise RangeCompatibilityError(
                f"coefficient {j} does not factor through the range of T0*: "
                f"residual {res:.3e} exceeds tol {tol:.1e}"
            )
        reduced.append(tj)
        residuals.append(res)
    return np.stack(reduced), residuals


def stacked_reduction(seq, tol):
    rf = reduce(seq, tol)
    return rf.t_seq.coefficients, rf.residuals


def reduction_outcome(reduction, seq, tol):
    # the bytes of t_0 .. t_N and the residuals, or the type and message of
    # the error raised (a perturbed M_0 can leave Re M_0 not PSD)
    try:
        t_seq, residuals = reduction(seq, tol)
    except (NotPsdError, RangeCompatibilityError) as err:
        return type(err), str(err)
    return t_seq.tobytes(), residuals


@PROPERTY
@given(reduction_problems(), st.sampled_from([1e-8, 1e-6]))
def test_stacked_reduce_is_the_per_coefficient_reduction(seq, tol):
    expected = reduction_outcome(reference_reduction, seq, tol)
    assert reduction_outcome(stacked_reduction, seq, tol) == expected


@st.composite
def factor_pairs(draw):
    # T (r x n) of condition up to 1e12 and scale 10^k, the factor of a
    # full-rank (r = n) or rank-deficient (r < n) matrix, and T' = W T for
    # an isometry W with up to two more rows, with relative noise
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, n))
    rows = r + draw(st.integers(0, 2))
    scale = 10.0 ** draw(st.integers(-6, 6))
    noise = draw(st.sampled_from([0.0, 1e-14, 1e-10, 1e-6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(m, k):
        return rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))

    left, right = np.linalg.qr(gaussian(r, r))[0], np.linalg.qr(gaussian(n, r))[0]
    singular = np.logspace(0, -draw(st.floats(0.0, 12.0)), r)
    t = scale * (left * singular) @ right.conj().T
    w = np.linalg.qr(gaussian(rows, r))[0]
    return t, w @ t + noise * scale * gaussian(rows, n)


def least_squares_isometry(t, t_prime):
    # the map ``connecting_isometry`` returned before it solved the
    # Procrustes problem: the polar factor of the least-squares map T' T^+
    outer, _, inner = np.linalg.svd(t_prime @ np.linalg.pinv(t), full_matrices=False)
    return outer @ inner


@settings(max_examples=300, deadline=None)
@given(factor_pairs())
def test_connecting_isometry_is_the_best_isometry(pair):
    # V minimises ||V T - T'||_F over isometries up to a backward error
    # delta in T' T*, which raises the squared residual by at most
    # 4 ||delta||_*, a few r u ||T||_F ||T'||_F
    t, t_prime = pair
    r = t.shape[0]
    u = np.finfo(float).eps
    v = connecting_isometry(t, t_prime, tol=1e-3)
    assert np.linalg.norm(v.conj().T @ v - np.eye(r)) <= 10 * r * u
    size = np.linalg.norm(t) + np.linalg.norm(t_prime)
    residual = np.linalg.norm(v @ t - t_prime)
    reference = np.linalg.norm(least_squares_isometry(t, t_prime) @ t - t_prime)
    assert residual**2 <= reference**2 + 10 * r * u * size**2
