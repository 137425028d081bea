"""Property tests for the batched evaluation kernel over block dimensions
1-3, orders 0-12 and 1-40 points, for its accuracy against a long-double
power sum, for the compressed kernel Gram (block dimensions 1-4) against
the block-tensor contraction, for the kernel Gram, dense and compressed,
and every kernel pair K(z, w), K(w, z)* on realization series: Hermitian
bit for bit, for the power table against the
``cumprod`` of the broadcast points, bit for bit, for the tail bound's
largest block norm against that of every block, bit for bit, for the
interlacing positivity profile against per-level reports (rank-deficient
data with M_0 shifted down or a late coefficient perturbed among them),
for the windowed assembly against a
per-diagonal one and, bit for bit, against a ``sliding_window_view``
construction (with the block reversal against an index gather), for the
data check of every entry point (the shifted Cholesky certificate, then
the eigenvalue check) against a per-level scan, for the eigenvalue check,
which refuses at the first level the profile fails, against its former
body, for the one-``eigh`` data
check of every extension entry point against the eigenvalue check where
lambda_min(T_N) sits within a few rounding margins of -tol, for the
block-Levinson extension against a per-step re-built chain, for
ill-conditioned parametrized chains (a library error, or a result whose
Toeplitz matrix stays above -eps, never a non-finite coefficient), for the
output check of ``extend`` (its Cholesky rung, then one eigvalsh) against
the eigenvalue check alone, and, in exact rational arithmetic
(``exact.is_positive_definite``), for the Cholesky certificate of
``_shifted_pivots``, for the atom rung (wherever it passes on determinate
data, plain or with one coefficient past its level moved across its
bound, T_N + (tol - 2 (m + 1) u nu) I is positive definite, at sizes up
to 32; its verdicts and messages are the per-level scan's) and for the
interlacing margins (every profile
bracket, widened by half the margin, holds the exact lambda_min of its
level, and data that the one-``eigh`` check passes on the margin have
T_N + (tol - margin / 2) I exactly PSD); for the central extension
from the minimal factor, on determinate data and others: its certificate
beta holds against the exact spectrum, the data come back within it, its
output is the same bits at every shift (or refused as the central
extension's) and a prefix of every longer one, where the output check
settles it T_L + max(tol, eps) (1 + 2^-40) I is exactly positive
definite, it commutes with scaling, and it is the
zero-contraction shifted chain with the shift extrapolated away; for every
output of the shifted chain, through zero contractions or others, of one
step or many: its computed lambda_min(T_L) is at least -eps, and, in exact
arithmetic at sizes up to 24, T_L + eps (1 + 2^-40) I is positive definite
whichever rung of the output check decided; on data that pass
their check, ``extend`` with any contractions, unit-norm ones included,
never raises NotPsdError; for the exact extension of determinate data: it
is the generating realization, its measure certificate never exceeds the
computed smallest eigenvalue of the output, it is bitwise the plain
formulas, and perturbed data are either certified by beta or by the
output check; for ``gram_isometries`` on realization data, plain and
perturbed: its factor is bitwise the F that ``extend`` builds, with its
rank, its data verdicts are ``extend``'s, and the isometries it returns
are isometries within 1e-8 that reproduce the data; for the stacked ``reduce``
against a per-coefficient reduction, bit for bit; for the one running
product ``linalg._orbit`` against one product per step, bit for bit, at
each realization it expands: the stacked products C* (V*)^n C of
``realization_coefficients``, the k < r model F_0* W^n F_0 of the central
extension and the base isometries W^j V_0 of ``gram_isometries`` (r = 0 and
order 0 among them); and for the orthogonal
Procrustes isometry of ``connecting_isometry``: an isometry to rounding
whose residual is never above that of the polar factor of the
least-squares map T' T^+, on factors of condition up to 1e12."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from herglotz import (
    CoefficientSequence,
    FactorizationMismatchError,
    HerglotzSeries,
    NotPsdError,
    SingularBlockError,
    assemble,
    central_step,
    certified_series,
    connecting_isometry,
    eval_series,
    extend,
    gram_isometries,
    kernel_value,
    parametrized_step,
    positivity_profile,
    RangeCompatibilityError,
    Realization,
    psd_report,
    random_realization,
    realization_coefficients,
    reduce,
    reverse_blocks,
    series_tail_bound,
)
from herglotz import extension, toeplitz
from herglotz.extension import _checked_output
from herglotz.linalg import hermitian_split, minimal_factorization
from herglotz.series import _gram_matrix, _powers
from herglotz.toeplitz import (
    _atom_level,
    _certified_data,
    _clearing_pivots,
    _frobenius_squares,
    _interlaced_reports,
    _interlacing_margin,
    _norm_bound,
    _rounding,
    _shifted_pivots,
)
from exact import is_positive_definite

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
def disk_points(max_size):
    return st.lists(
        st.tuples(st.floats(0.0, 0.89), st.floats(0.0, 2 * np.pi)), min_size=1, max_size=max_size
    ).map(lambda polar: np.array([r * np.exp(1j * t) for r, t in polar]))


points = disk_points(40)


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


# power-table entries of modulus 0, of modulus 1 and of any modulus up to 2
power_entries = st.one_of(
    st.just(0j),
    st.floats(-np.pi, np.pi).map(lambda t: complex(np.exp(1j * t))),
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.just(()), st.tuples(st.integers(0, 100)), st.tuples(st.integers(0, 4), st.integers(0, 8))
    ).flatmap(
        lambda shape: st.lists(
            power_entries, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))
        ).map(lambda zs: np.array(zs, dtype=complex).reshape(shape))
    ),
    st.integers(0, 300),
)
def test_powers_are_bitwise_the_broadcast_cumprod(z, n):
    # the in-place running product is the cumprod of the broadcast points
    expected = np.cumprod(np.broadcast_to(z[..., None], z.shape + (n,)), axis=-1)
    got = _powers(z, n)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


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


@st.composite
def realization_series(draw):
    d = draw(st.integers(1, 4))
    rlz = random_realization(draw(st.integers(0, 2**32 - 1)), d, draw(st.integers(1, 6)))
    return HerglotzSeries(realization_coefficients(rlz, draw(st.integers(0, 300))), RADIUS)


def per_step_orbit(a, y, n):
    # y, a y, ..., a^n y, each power one product of a with the one before:
    # the reference of ``linalg._orbit`` for every realization it expands
    ys = [np.ascontiguousarray(y)]
    for _ in range(n):
        ys.append(a @ ys[-1])
    return ys


def per_step_coefficients(rlz, n_max):
    # M_0 = D + C*C and M_n = C* y_n with y_n = V* y_{n-1}: one product C* y_n
    # per step
    d, c, v = (np.asarray(x, dtype=complex) for x in (rlz.D, rlz.C, rlz.V))
    blocks = [c.conj().T @ y for y in per_step_orbit(v.conj().T, c, n_max)]
    blocks[0] = d + blocks[0]
    return np.stack(blocks)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 12),
    st.integers(0, 64),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 1e-150, 1.0, 1e150]),
)
def test_realization_coefficients_are_bitwise_the_per_step_products(d, h, order, seed, c_scale):
    # the stacked product of C* with every state is the per-step products,
    # zero C included
    rlz = random_realization(seed, d, h)
    rlz = Realization(D=rlz.D, C=rlz.C * c_scale, V=rlz.V)
    got = realization_coefficients(rlz, order).coefficients
    assert got.tobytes() == per_step_coefficients(rlz, order).tobytes()


@settings(max_examples=100, deadline=None)
@given(realization_series(), disk_points(120), st.one_of(st.none(), st.integers(0, 2**32 - 1)))
def test_kernel_is_hermitian_bit_for_bit(phi, pts, seed):
    # the Gram, dense or compressed, is its own conjugate transpose, and so
    # is every pair K(z, w), K(w, z)*
    vecs = None
    if seed is not None:
        rng = np.random.default_rng(seed)
        shape = (len(pts), phi.seq.block_dim)
        vecs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    gram = _gram_matrix(phi, pts, vecs)
    assert np.array_equal(gram, gram.conj().T)
    z, w = pts[0], pts[-1]
    assert np.array_equal(kernel_value(phi, z, w), kernel_value(phi, w, z).conj().T)


@st.composite
def block_stacks(draw):
    # T + 1 = 1 .. 301 blocks of dimension 1 .. 4: Gaussian, Gaussian with
    # decaying sizes, unit multiples of one unitary (every spectral norm
    # tied), realization data, or Gaussian with sizes spread over
    # 10^-300 .. 10^300; scaled by 10^k, or to where the squares of the
    # Frobenius norms underflow (1e-160) or overflow (1e154, 1e300)
    d = draw(st.integers(1, 4))
    count = draw(st.integers(1, 301))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gaussian", "decaying", "tied", "realization", "spread"]))
    blocks = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    if kind == "decaying":
        blocks *= rng.uniform(0, 1, count)[:, None, None] ** np.arange(count)[:, None, None]
    elif kind == "tied":
        phases = np.exp(2j * np.pi * rng.uniform(0, 1, count))
        blocks = phases[:, None, None] * np.linalg.qr(blocks[0])[0]
    elif kind == "realization":
        blocks = realization_coefficients(random_realization(rng, d, d + 2), count - 1).coefficients
    elif kind == "spread":
        blocks *= 10.0 ** rng.uniform(-300, 300, count)[:, None, None]
        return CoefficientSequence(blocks)
    powers = st.integers(-12, 12).map(lambda k: 10.0**k)
    scale = draw(st.one_of(powers, st.sampled_from([1e-160, 1e154, 1e300])))
    return CoefficientSequence(blocks * scale)


@settings(max_examples=200, deadline=None)
@given(block_stacks())
# a block whose square is finite has the larger norm: 1.3e154 against 1e154
# for 1e154 I, whose square overflows
@example(CoefficientSequence(np.array([np.diag([1.3e154, 0, 0, 0]), 1e154 * np.eye(4)])))
def test_max_block_norm_is_that_of_every_block(seq):
    # the tail bound's max_n ||M_n||_2 decomposes only the blocks that can
    # reach it, and is bitwise the maximum over the spectral norms of all
    expected = float(np.linalg.norm(seq.coefficients, 2, axis=(1, 2)).max())
    assert HerglotzSeries(seq)._max_block_norm == expected


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
def borderline_data(draw, max_size=None):
    # realization data (full-rank or rank-deficient, scaled by 10^k) with
    # M_0 shifted so that lambda_min(T_N) lands within four interlacing
    # margins of -tol on either side, with that tol; ``max_size`` caps the
    # size (N + 1) d of T_N
    d = draw(st.integers(1, 3))
    order = draw(st.integers(0, 8 if max_size is None else max_size // d - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rlz = random_realization(rng, d, int(rng.integers(1, (order + 1) * d + 3)))
    coeffs = realization_coefficients(rlz, order).coefficients * 10.0 ** draw(st.integers(-6, 6))
    tol = draw(st.sampled_from([1e-12, 1e-9, 1e-6]))
    eigs = np.linalg.eigvalsh(assemble(CoefficientSequence(coeffs)).dense)
    offset = draw(st.floats(-4.0, 4.0)) * _interlacing_margin(eigs)
    coeffs[0] += (-tol - eigs[0] + offset) * np.eye(d)
    return CoefficientSequence(coeffs), tol


def reference_certified_data(seq, tol):
    # the eigenvalue check as it was written before it took the reports of
    # ``positivity_profile``: its own eigvalsh of T_N, and the interlaced
    # reports only where lambda_min(T_N) lies within the margin of -tol
    dense = assemble(seq).dense
    eigs = np.linalg.eigvalsh(dense)
    if eigs[0] < _interlacing_margin(eigs) - tol:
        for n, report in enumerate(_interlaced_reports(dense, seq.block_dim, tol, eigs)):
            if not report.is_psd:
                raise NotPsdError(
                    f"truncation level {n} is not PSD (min eigenvalue {report.lower:.3e})"
                )


@settings(max_examples=600, deadline=None)
@given(borderline_data())
def test_eigenvalue_check_refuses_at_the_first_failing_profile_level(problem):
    # the eigenvalue check refuses the data at the first level the profile
    # fails, with the verdict and message of the reference
    seq, tol = problem
    got = check_outcome(_certified_data, seq, tol)
    assert got == check_outcome(reference_certified_data, seq, tol)
    failing = [n for n, r in enumerate(positivity_profile(seq, tol)) if not r.is_psd]
    assert (got is None) == (not failing)
    if failing:
        assert f"truncation level {failing[0]} is not PSD" in got[1]


class DataPassed(Exception):
    pass


def zero_contraction_chain(seq, tol):
    return extend(seq, 3, contractions=[np.zeros((seq.block_dim,) * 2)] * 3, tol=tol)


ENTRY_POINTS = {
    "central extension": lambda seq, tol: extend(seq, 3, tol=tol),
    "zero-contraction chain": zero_contraction_chain,
    "central_step": lambda seq, tol: central_step(seq, 1e-8, tol=tol),
}


@settings(max_examples=600, deadline=None)
@given(borderline_data(), st.sampled_from(sorted(ENTRY_POINTS)))
def test_central_extension_decides_the_data_as_the_eigenvalue_check(problem, entry):
    # every extension entry point decides the data from one eigh of T_N:
    # its verdict and message are exactly those of the eigenvalue check.
    # Everything after the data check (the central extension of the central
    # chain, the ball state of the others) is cut off by a sentinel
    seq, tol = problem
    expected = check_outcome(reference_certified_data, seq, tol)
    with mock.patch.object(
        extension, "_central_extension", side_effect=DataPassed
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
    # the per-step eps chain for chains; determinate data (state dimension
    # at most N d) extend centrally as their realization, other data as
    # their central extension, bit for bit, whether its certificate or the
    # output check settles it
    seq, steps, contractions, rlz = problem
    got = extend(seq, steps, eps=eps, contractions=contractions).coefficients
    assert got[: len(seq)].tobytes() == seq.coefficients.tobytes()
    if contractions is None and steps and rlz.V.shape[0] <= seq.order * seq.block_dim:
        assert got.shape == (len(seq) + steps, seq.block_dim, seq.block_dim)
        assert_is_the_realization(got, rlz, seq)
        return
    if contractions is None and steps:
        assert got.tobytes() == central_extension(seq, steps, 1e-9)[0].tobytes()
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
def scaled_levels(draw, max_size=None):
    d = draw(st.integers(1, 3))
    blocks = draw(st.integers(1, 41 if max_size is None else max_size // d))
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


@st.composite
def rank_deficient_levels(draw):
    # realization data of rank below (N + 1) d at N = 16 .. 40, scaled by
    # 10^k: the levels past the rank are singular, and the upper end of
    # their brackets comes from the spectrum of T_N.  M_0 shifted down, or
    # a late coefficient perturbed, makes levels fail there too
    d = draw(st.integers(1, 3))
    order = draw(st.integers(16, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rlz = random_realization(rng, d, draw(st.integers(1, (order + 1) * d - 1)))
    coeffs = realization_coefficients(rlz, order).coefficients
    coeffs = coeffs * 10.0 ** draw(st.integers(-12, 12))
    size = float(np.abs(coeffs).max())
    change = draw(st.sampled_from(["none", "shift", "late"]))
    amount = draw(st.sampled_from([1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1])) * size
    if change == "shift":
        coeffs[0] -= amount * np.eye(d)
    elif change == "late":
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        coeffs[order - draw(st.integers(0, 3))] += amount * g
    return CoefficientSequence(coeffs)


def report_bits(reports):
    # the reports with each float as its exact hexadecimal text
    return [
        (r.lower.hex(), r.upper.hex(), r.is_psd, r.is_strictly_positive, r.tolerance_used)
        for r in reports
    ]


def spectrum_profile(seq, tol):
    # the profile read from one eigvalsh of T_N, as it was before the
    # Cholesky rung
    dense = assemble(seq).dense
    return _interlaced_reports(dense, seq.block_dim, tol, np.linalg.eigvalsh(dense))


@st.composite
def unit_scaled_levels(draw):
    # realization data at order 0 .. 12 scaled by 10^-8, 1 or 10^8, full
    # rank or not, with M_0 shifted down by a fraction of its size or not
    d = draw(st.integers(1, 3))
    order = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rlz = random_realization(rng, d, draw(st.integers(1, (order + 1) * d + 2)))
    coeffs = realization_coefficients(rlz, order).coefficients
    coeffs = coeffs * 10.0 ** draw(st.sampled_from([-8, 0, 8]))
    shift = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]))
    coeffs[0] -= shift * float(np.abs(coeffs).max()) * np.eye(d)
    return CoefficientSequence(coeffs)


@st.composite
def low_rank_levels(draw):
    # realization data of rank below (N + 1) d, N = 1 .. 40, scaled by
    # 10^k, with a tol: the levels past the rank are singular.  Below N = 15
    # the atom rung searches nothing; above it, data of rank at most 2 d are
    # determinate at a searched level, and others may not be
    d = draw(st.integers(1, 3))
    order = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rlz = random_realization(rng, d, draw(st.integers(1, order * d)))
    coeffs = realization_coefficients(rlz, order).coefficients * 10.0 ** draw(st.integers(-8, 8))
    return CoefficientSequence(coeffs), draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-2]))


@st.composite
def determinate_levels(draw, max_size=None):
    # the atom rung's data: realization data of a Haar unitary with state
    # dimension r <= 2 d, so determinate from level 1 or 2 (r <= s d), at
    # N = 15 .. 40 (the rung needs 8 (s + 1) <= N + 1), scaled by 10^-8, 1
    # or 10^8, with tol = 1e-12, 1e-9 or 1e-6 relative to that scale.  One
    # coefficient past level 4 is moved by delta g, g a block of unit
    # Frobenius norm, delta = f tol / 2: the defect sum 2 delta of the
    # rung's bound then straddles tol.  ``max_size`` caps (N + 1) d
    d = draw(st.integers(1, 3 if max_size is None else max_size // 16))
    top = 40 if max_size is None else max_size // d - 1
    order = draw(st.integers(15, top))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rlz = random_realization(rng, d, draw(st.integers(1, 2 * d)))
    scale = 10.0 ** draw(st.sampled_from([-8, 0, 8]))
    coeffs = realization_coefficients(rlz, order).coefficients * scale
    tol = draw(st.sampled_from([1e-12, 1e-9, 1e-6])) * scale
    f = draw(st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 4.0]))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    sign = draw(st.sampled_from([1.0, -1.0]))
    coeffs[draw(st.integers(5, order))] += sign * f * tol / 2 * g / np.linalg.norm(g)
    return CoefficientSequence(coeffs), tol


def proved(seq, tol):
    # whether the atom rung of the profile proves every level's computed
    # lambda_min >= -tol
    return _atom_level(seq, tol) is not None


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.one_of(
        borderline_data(),
        st.tuples(unit_scaled_levels(), st.sampled_from([1e-12, 1e-9, 1e-6, 1e-2])),
        low_rank_levels(),
        determinate_levels(),
    )
)
def test_profile_no_rung_proves_is_the_spectrum_profile(count_dense_calls, problem):
    # the profile runs no Cholesky factorisation.  Where the atom rung does
    # not prove the data PSD, it is bitwise the profile read from the
    # spectrum of T_N; where it does, every verdict is still the per-level
    # one and no bracket ends below -tol
    seq, tol = problem
    calls = count_dense_calls()
    profile = positivity_profile(seq, tol)
    assert calls["cholesky"] == []
    if not proved(seq, tol):
        assert report_bits(profile) == report_bits(spectrum_profile(seq, tol))
        return
    for n, level in enumerate(profile):
        reference = psd_report(assemble(seq.truncated(n)).dense, tol)
        assert level.lower >= -tol and level.is_psd and reference.is_psd
        assert level.lower <= reference.min_eigenvalue <= level.upper
        assert level.is_strictly_positive == reference.is_strictly_positive


@settings(max_examples=150, deadline=None)
@given(determinate_levels())
def test_profile_the_atom_rung_proves_reads_its_level(problem):
    # where the atom rung proves the data PSD from its determinate level
    # s < N, the first s + 1 reports are bitwise the profile of T_s read
    # from its spectrum, and every later level carries
    # [-tol, lambda_s + margin], margin = 4 m u nu; where that upper end
    # passes tol, which only rounding allows, the spectrum of T_N decides
    seq, tol = problem
    d = seq.block_dim
    s, _ = _atom_level(seq, tol) or (None, None)
    assume(s is not None)
    profile = positivity_profile(seq, tol)
    head = spectrum_profile(seq.truncated(s), tol)
    margin = 4 * len(seq) * d * np.finfo(float).eps * float(_norm_bound(seq.coefficients))
    cap = head[s].upper + margin
    if cap > tol:
        assert report_bits(profile) == report_bits(spectrum_profile(seq, tol))
        return
    assert report_bits(profile[: s + 1]) == report_bits(head)
    for level in profile[s + 1 :]:
        assert (level.lower, level.upper) == (-tol, cap)
        assert level.is_psd and not level.is_strictly_positive and level.tolerance_used == tol


@settings(max_examples=100, deadline=None)
@given(determinate_levels(max_size=32))
def test_atom_rung_is_exact(problem):
    # wherever the atom rung passes, T_N + (tol - margin) I is positive
    # definite in rational arithmetic, with the margin 2 (m + 1) u nu of
    # ``_clearing_pivots``: the claim of that rung, that every level's
    # computed lambda_min is at least -tol.  At sizes up to 32, d = 1 or 2
    seq, tol = problem
    if _atom_level(seq, tol) is None:
        return
    m = len(seq) * seq.block_dim
    margin = 2 * (m + 1) * np.finfo(float).eps * _norm_bound(seq.coefficients)
    assert is_positive_definite(assemble(seq).dense, Fraction(tol) - Fraction(float(margin)))


@settings(max_examples=150, deadline=None)
@given(determinate_levels())
def test_atom_rung_decides_as_the_per_level_scan(problem):
    # the atom rung proves passes only: where it passes every level passes
    # the per-level scan, and the data check and the profile give the
    # verdicts and messages of that scan whatever the rung does
    seq, tol = problem
    expected = reference_certification(seq, tol)
    if _atom_level(seq, tol) is not None:
        assert expected is None
    assert check_outcome(certified_series, seq, RADIUS, tol) == (
        expected and (NotPsdError, expected)
    )
    for n, level in enumerate(positivity_profile(seq, tol)):
        reference = psd_report(assemble(seq.truncated(n)).dense, tol)
        assert level.is_psd == reference.is_psd
        assert level.is_strictly_positive == reference.is_strictly_positive


@settings(max_examples=120, deadline=None)
@given(st.one_of(scaled_levels(), rank_deficient_levels()), st.sampled_from([1e-9, 1e-6, 1e-2]))
def test_profile_brackets_the_per_level_reports(seq, tol):
    # decomposed levels are bitwise the per-level report, interlaced ones
    # hold it in their bracket, and every verdict is the per-level one; the
    # first failing level, which certified_series names, is decomposed, and
    # the eigenvalue check's message is the per-level scan's.  Level N is
    # decomposed exactly where the profile is read from the spectrum of
    # T_N, which it is wherever the atom rung does not prove the data PSD
    profile = positivity_profile(seq, tol)
    assert len(profile) == len(seq)
    assert profile[0].lower == profile[0].upper
    read_from_spectrum = report_bits(profile) == report_bits(spectrum_profile(seq, tol))
    assert (profile[-1].lower == profile[-1].upper) == read_from_spectrum
    assert read_from_spectrum or proved(seq, tol)
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
    expected = reference_certification(seq, tol)
    assert check_outcome(_certified_data, seq, tol) == (expected and (NotPsdError, expected))


def reference_output_check(coeffs, bound, route):
    # the output check with no Cholesky rung: one eigvalsh of T_L, whose
    # least eigenvalue must clear -bound by (lambda_max + bound) m u
    eigs = np.linalg.eigvalsh(assemble(CoefficientSequence(coeffs)).dense)
    margin = (eigs[-1] + bound) * (len(eigs) * np.finfo(float).eps)
    if not eigs[0] + bound > margin:
        raise SingularBlockError(
            f"the Toeplitz matrix of the {route} at level {len(coeffs) - 1} is not PSD within "
            f"{bound:.3e} (least eigenvalue {eigs[0]:.3e}, rounding margin {margin:.3e})"
        )


@settings(max_examples=300, deadline=None)
@given(scaled_levels(), st.sampled_from([1e-8, 1e-3, 1.0]))
def test_output_check_matches_the_eigenvalue_check(seq, bound):
    # the Cholesky rung shared with the data check passes only where the
    # eigenvalue check does, so the output check's verdicts and messages are
    # those of one eigvalsh of T_L
    if _clearing_pivots(seq, bound):
        assert check_outcome(reference_output_check, seq.coefficients, bound, "") is None
    route = "parametrized chain"
    expected = check_outcome(reference_output_check, seq.coefficients, bound, route)
    assert check_outcome(_checked_output, seq.coefficients, bound, route) == expected


@settings(max_examples=100, deadline=None)
@given(scaled_levels(max_size=24), st.floats(-2.0, 50.0), st.sampled_from([0.0, 1e-3, 1.0, 10.0]))
def test_cholesky_certificate_is_exact(seq, offset, margin):
    # wherever the factorisation of ``_shifted_pivots`` succeeds, proving
    # lambda_min(A) > base + margin, A - (base + margin) I is positive
    # definite in rational arithmetic.  base sits below the computed
    # lambda_min by ``offset`` and the margin is ``margin``, both in units
    # of m u sum |A_ii|, so both verdicts occur
    dense = assemble(seq).dense
    unit = dense.shape[0] * np.finfo(float).eps * float(np.abs(dense.diagonal()).sum())
    margin *= unit
    base = float(np.linalg.eigvalsh(dense)[0]) - margin - offset * unit
    if _shifted_pivots(dense.copy(), base, margin):
        assert is_positive_definite(dense, -(Fraction(base) + Fraction(margin)))


def allowance(*terms):
    # the 2^-40 relative allowance of the exact properties, on a sum of terms
    return sum(abs(Fraction(t)) for t in terms) / 2**40


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.tuples(scaled_levels(max_size=24), st.sampled_from([1e-9, 1e-6, 1e-2])),
        borderline_data(max_size=24),
    )
)
def test_profile_brackets_hold_the_exact_spectrum(problem):
    # the convention of ``positivity_profile`` against the exact spectrum:
    # every level's computed lambda_min lies within half the interlacing
    # margin of T_N of its exact one, so the bracket [lower, upper] of
    # every level it reports, decomposed or interlaced, widened by that half
    # margin, holds the exact lambda_min(T_n)
    seq, tol = problem
    dense = assemble(seq).dense
    half = Fraction(_interlacing_margin(np.linalg.eigvalsh(dense))) / 2
    d = seq.block_dim
    for n, level in enumerate(positivity_profile(seq, tol)):
        top = dense[: (n + 1) * d, : (n + 1) * d]
        low, high = Fraction(level.lower) - half, Fraction(level.upper) + half
        # lambda_min(T_n) > low - allowance, and not above high + allowance
        assert is_positive_definite(top, allowance(low, half) - low)
        assert not is_positive_definite(top, -high - allowance(high, half))


@settings(max_examples=100, deadline=None)
@given(borderline_data(max_size=24))
def test_decomposed_data_passing_on_the_margin_are_exactly_above_it(problem):
    # where the computed eigs[0] >= margin - tol lets ``toeplitz._decomposed``
    # pass the data without the eigenvalue check, the exact lambda_min(T_N)
    # is at least -tol + margin / 2: T_N + (tol - margin / 2) I is PSD,
    # exactly, up to the allowance
    seq, tol = problem
    try:
        dense, eigs, _, margin = toeplitz._decomposed(seq, tol)
    except NotPsdError:
        return
    if eigs[0] >= margin - tol:
        shift = Fraction(tol) - Fraction(margin) / 2
        assert is_positive_definite(dense, shift + allowance(tol, margin))


def extend_outcome(seq, steps, eps, tol=1e-9):
    # the coefficient bytes of a central extension, or the type and message
    # of the error it raises
    try:
        return extend(seq, steps, eps=eps, tol=tol).coefficients.tobytes()
    except (NotPsdError, SingularBlockError) as err:
        return type(err), str(err)


@st.composite
def route_problems(draw, max_horizon=300, max_size=None, perturb=False):
    # realization data of full rank or short of it by up to three, so both
    # determinate data and others, d 1-3, N 1-10, scaled by 10^k (|k| <= 6),
    # with a horizon L up to ``max_horizon``; ``max_size`` caps the size
    # (L + 1) d of T_L, and ``perturb`` moves the last coefficient by a
    # relative 0 .. 1e-6
    d = draw(st.integers(1, 3))
    blocks = max_horizon + 1 if max_size is None else min(max_size // d, max_horizon + 1)
    order = draw(st.integers(1, min(10, blocks - 2)))
    horizon = draw(st.integers(order + 1, blocks - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = max((order + 1) * d - draw(st.integers(0, 3)), 1)
    scale = 10.0 ** draw(st.integers(-6, 6))
    coeffs = realization_coefficients(random_realization(rng, d, rank), order).coefficients * scale
    if perturb:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        coeffs[-1] += draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6])) * scale * g
    return CoefficientSequence(coeffs), horizon - order, scale


def central_from(seq, data, steps):
    # the central extension of the data and its beta from their decomposition
    # (``toeplitz._decomposed``), taken whatever beta is
    dense, eigs, vecs, margin = data
    factor = toeplitz._minimal_factor(eigs, vecs, margin, seq.block_dim)
    return extension._central_extension(seq, dense, factor, steps)


def central_extension(seq, steps, tol):
    return central_from(seq, toeplitz._decomposed(seq, tol), steps)


@settings(max_examples=100, deadline=None)
@given(route_problems(max_size=24, perturb=True))
def test_central_extension_is_certified_exactly(problem):
    # the certificate against the exact spectrum: T_L + beta (1 + 2^-40) I
    # is positive definite in rational arithmetic, on determinate data and
    # others, also where a perturbation of the data makes beta large
    seq, steps, scale = problem
    try:
        coeffs, beta = central_extension(seq, steps, 1e-9 * scale)
    except NotPsdError:
        return
    dense = assemble(CoefficientSequence(coeffs)).dense
    assert is_positive_definite(dense, Fraction(beta) * (1 + Fraction(1, 2**40)))


@settings(max_examples=100, deadline=None)
@given(route_problems(max_size=24, perturb=True), st.sampled_from([1e-15, 1e-13, 1e-11]))
def test_densely_checked_central_extension_is_certified_exactly(problem, tol):
    # where beta exceeds max(tol, eps) and the output check passes, T_L +
    # max(tol, eps) (1 + 2^-40) I is positive definite in rational
    # arithmetic, whichever rung decided.  A tol of 1e-15 .. 1e-11 relative
    # to the data and eps = 1e-300 leave about 40% of the draws to that check
    seq, steps, scale = problem
    tol *= scale
    try:
        beta = central_extension(seq, steps, tol)[1]
        out = extend(seq, steps, eps=1e-300, tol=tol)
    except (NotPsdError, SingularBlockError):
        return
    if beta > max(tol, 1e-300):
        bound = Fraction(max(tol, 1e-300)) * (1 + Fraction(1, 2**40))
        assert is_positive_definite(assemble(out).dense, bound)


def partial_isometry(seq, dense, eigs, vecs, margin):
    # F_0 and W^ of the minimal factor as the plain formulas give them: the
    # factor formed whole, the singular vectors of Q P* above the margin
    d = seq.block_dim
    r = int(np.count_nonzero(eigs > margin))
    factor = (vecs[:, len(eigs) - r :] * np.sqrt(eigs[len(eigs) - r :])).conj().T
    outer, sv, inner = np.linalg.svd(factor[:, d:] @ factor[:, :-d].conj().T, full_matrices=False)
    k = int(np.count_nonzero(sv > margin))
    return factor[:, :d], outer[:, :k] @ inner[:k], np.sqrt(sv[0] / sv[k - 1]) if k else 1.0


@PROPERTY
@given(route_problems(max_horizon=40))
def test_central_extension_gives_the_data_back(problem):
    # each defect M_n - F_0* W^^n F_0 (n <= N) of the data against their
    # realization lies within the certificate's beta, which counts the
    # data's defects, and within 100 (N + 1) kappa u ||T_N||_2, kappa the
    # condition of the past block P (observed at most 1.8 over 400 draws)
    seq, steps, scale = problem
    dense, eigs, vecs, margin = toeplitz._decomposed(seq, 1e-9 * scale)
    beta = central_from(seq, (dense, eigs, vecs, margin), steps)[1]
    first, w, kappa = partial_isometry(seq, dense, eigs, vecs, margin)
    d, x, defects = seq.block_dim, first, []
    for n in range(len(seq)):
        defects.append(np.linalg.norm(dense[:d, n * d : (n + 1) * d] - first.conj().T @ x))
        x = w @ x
    assert max(defects) <= beta
    assert max(defects) <= 100 * len(seq) * kappa * np.finfo(float).eps * eigs[-1]


def gram_outcome(seq, tol):
    # the factor F that ``extend`` builds (None where it refuses the data)
    # and its r, the data verdict of ``extend`` (None where it passes), and
    # what ``gram_isometries`` gives at the same tol: its GramFactor, or the
    # type and message it raises
    built = []

    def recording(*args):
        built.append(toeplitz._minimal_factor(*args))
        return built[-1]

    with mock.patch.object(extension, "_minimal_factor", recording):
        verdict = check_outcome(extend, seq, 1, 1e-8, None, tol)
    try:
        got = gram_isometries(seq, tol)
    except (NotPsdError, SingularBlockError, FactorizationMismatchError) as err:
        got = type(err), str(err)
    rows, r = built[0][:2] if built else (None, None)
    return rows, r, verdict, got


@settings(max_examples=150, deadline=None)
@given(
    st.booleans().flatmap(
        lambda moved: st.tuples(route_problems(max_size=24, perturb=moved), st.just(moved))
    )
)
def test_gram_isometries_read_the_factor_of_extend(case):
    # one minimal factor of T_N and one rank rule: where ``extend`` takes
    # the data, the factor of ``gram_isometries`` is bitwise its F, with its
    # rank r; where it refuses them, ``gram_isometries`` refuses them with
    # the same error.  Realization data, plain (which it always takes) or
    # with the last coefficient moved (which may leave them no factorization
    # within tol), get isometries that are isometries within 1e-8 and
    # reproduce every coefficient within tol ||T_N||_F
    (seq, _, _), moved = case
    tol = 1e-8
    rows, r, verdict, got = gram_outcome(seq, tol)
    if verdict is not None and verdict[0] is NotPsdError:
        assert got == verdict
        return
    if moved and isinstance(got, tuple):
        assert got[0] is FactorizationMismatchError
        return
    assert got.factor.tobytes() == rows.conj().T.tobytes()
    assert got.factor.shape == (r, len(seq) * seq.block_dim)
    d = seq.block_dim
    t0 = minimal_factorization(hermitian_split(seq.coefficients[0])[0], tol).T
    allowed = tol * np.linalg.norm(assemble(seq).dense)
    for j, v in enumerate(got.isometries):
        assert np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])) <= 1e-8
        m_j = t0.conj().T @ got.isometries[0].conj().T @ v @ t0
        assert j == 0 or np.linalg.norm(seq.coefficients[j] - m_j) <= allowed


@st.composite
def general_route_problems(draw):
    # data of the general route of the central extension (k < r): a
    # realization of state dimension above N d, so rank T_N > rank T_{N-1},
    # d 1-3, N 0-8 (order 0 included: with no past blocks k = 0 < r),
    # scaled by 10^k (|k| <= 6), to a horizon up to N + 80
    d = draw(st.integers(1, 3))
    order = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rlz = random_realization(rng, d, order * d + draw(st.integers(1, d + 2)))
    scale = 10.0 ** draw(st.integers(-6, 6))
    seq = CoefficientSequence(realization_coefficients(rlz, order).coefficients * scale)
    return seq, draw(st.integers(1, 80)), scale


ORBIT_EXAMPLES = [
    # r = 0 (Re M_0 = 0, no factor rows) and order 0 (no past blocks)
    (CoefficientSequence.from_scalars([1j, 0]), 7, 1.0),
    (CoefficientSequence.from_scalars([2.0]), 7, 1.0),
    (CoefficientSequence(np.array([[2.0, 1j], [-1j, 3.0]])), 7, 1.0),
]


@settings(max_examples=100, deadline=None)
@given(general_route_problems())
@example(ORBIT_EXAMPLES[0])
@example(ORBIT_EXAMPLES[1])
@example(ORBIT_EXAMPLES[2])
def test_general_central_extension_is_bitwise_the_per_step_products(problem):
    # past N the model of the k < r route is M_n = F_0* X_n with X_n = W^
    # X_{n-1} from X_0 = F_0, each product taken by itself, bit for bit; at
    # r = 0 (which takes the determinate branch) both are zero
    seq, steps, scale = problem
    data = toeplitz._decomposed(seq, 1e-9 * scale)
    rows, r, outer, inner = toeplitz._minimal_factor(*data[1:], seq.block_dim)
    assert outer.shape[1] < r or r == 0
    d, n, last = seq.block_dim, len(seq), seq.order + steps
    expected = [rows[:d] @ x for x in per_step_orbit(outer @ inner, rows[:d].conj().T, last)]
    got = central_from(seq, data, steps)[0]
    assert got[n:].tobytes() == np.stack(expected)[n:].tobytes()


@settings(max_examples=100, deadline=None)
@given(st.one_of(route_problems(max_size=40), route_problems(max_size=40, perturb=True)))
@example(ORBIT_EXAMPLES[0])
@example(ORBIT_EXAMPLES[1])
@example(ORBIT_EXAMPLES[2])
def test_gram_isometries_are_bitwise_the_per_step_products(problem):
    # V_0 is the Procrustes solution of the base factor and F_0, and V_j =
    # W^ V_{j-1}, each product taken by itself, bit for bit; at r = 0 every
    # V_j is 0 x 0, and at order 0 there is V_0 alone
    seq, _, _ = problem
    tol = 1e-8
    try:
        got = gram_isometries(seq, tol)
    except (NotPsdError, SingularBlockError, FactorizationMismatchError):
        return
    dense, eigs, vecs, margin = toeplitz._decomposed(seq, tol)
    d = seq.block_dim
    rows, _, outer, inner = toeplitz._minimal_factor(eigs, vecs, margin, d)
    base = minimal_factorization(dense[:d, :d], tol_rank=tol)
    v0 = connecting_isometry(base, rows.conj().T[:, :d], tol=tol)
    expected = per_step_orbit(outer @ inner, v0, seq.order)
    assert len(got.isometries) == len(expected) == len(seq)
    for v, e in zip(got.isometries, expected):
        assert v.shape == e.shape and v.tobytes() == e.tobytes()


@PROPERTY
@given(st.one_of(route_problems(), route_problems(perturb=True)), st.sampled_from([1e-9, 1e-13]))
def test_central_extension_takes_no_shift(problem, tol):
    # at eps = 1e-14, 1e-8, 1e-3 and 1, extend either returns bitwise the
    # central extension's output, whether its beta settles it or the output
    # check, or refuses it, naming the central extension; no
    # central call builds the shifted chain's state.  Its coefficients do
    # not depend on the horizon: a shorter one is bitwise its prefix.  At
    # tol = 1e-13 relative to the data, about half the draws that pass the
    # data check leave the output to the output check at eps = 1e-14
    seq, steps, scale = problem
    tol *= scale
    try:
        coeffs = central_extension(seq, steps, tol)[0]
    except NotPsdError:
        return
    shorter = central_extension(seq, (steps + 1) // 2, tol)[0]
    assert shorter.tobytes() == coeffs[: len(shorter)].tobytes()
    with mock.patch.object(extension, "_ball_state", side_effect=AssertionError):
        for eps in (1e-14, 1e-8, 1e-3, 1.0):
            got = extend_outcome(seq, steps, eps, tol)
            if isinstance(got, bytes):
                assert got == coeffs.tobytes()
            else:
                assert got[0] is SingularBlockError and "of the central extension" in got[1]


@PROPERTY
@given(route_problems(), st.integers(-6, 6))
def test_central_extension_commutes_with_scaling(problem, power):
    # scaled by 10^k and divided back, the output is the unscaled one within
    # 1e-12 relative, up to the two certificates' rounding allowance beta
    # (which horizons of 300 with slowly decaying powers of W reach)
    seq, steps, scale = problem
    coeffs, beta = central_extension(seq, steps, 1e-9 * scale)
    factor = 10.0**power
    scaled = CoefficientSequence(seq.coefficients * factor)
    other, other_beta = central_extension(scaled, steps, 1e-9 * scale * factor)
    size = float(np.abs(coeffs).max())
    assert np.abs(other / factor - coeffs).max() <= 1e-12 * size + beta + other_beta / factor


@PROPERTY
@given(route_problems(max_horizon=60))
def test_central_extension_is_the_zero_contraction_chain_without_its_shift(problem):
    # the shifted chain through zero contractions moves off the central
    # extension by its shift, to first order (by up to 6.5e-9 relative at a
    # shift of 1e-12 relative to the data, in 263 chains that returned of 400
    # draws); extrapolated to no shift from shifts of 1e-11 and 1e-12
    # relative (Richardson), it is the central extension within 1e-10
    # relative (observed at most 2e-12), where both chains return
    seq, steps, scale = problem
    coeffs = central_extension(seq, steps, 1e-9 * scale)[0]
    zeros = [np.zeros((seq.block_dim,) * 2)] * steps
    try:
        coarse, fine = (
            extend(seq, steps, eps=eps * scale, contractions=zeros, tol=1e-9 * scale).coefficients
            for eps in (1e-11, 1e-12)
        )
    except SingularBlockError:
        return
    size = float(np.abs(coeffs).max())
    assert np.abs((10 * fine - coarse) / 9 - coeffs).max() <= 1e-10 * size


@st.composite
def shifted_chains(draw, central, sizes=(0.5, 0.9), max_size=None):
    # realization data of full rank or short of it by one or two, scaled by
    # 10^k, with a chain of one step (as often as any other count) up to 60;
    # a parametrized chain takes contractions each zero or of one norm drawn
    # from ``sizes``; ``max_size`` caps the size (N + 1 + steps) d of T_L
    d = draw(st.integers(1, 3))
    blocks = 1 + 8 + 60 if max_size is None else max_size // d
    order = draw(st.integers(0, min(8, blocks - 2)))
    steps = draw(st.one_of(st.just(1), st.integers(1, min(60, blocks - 1 - order))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = (order + 1) * d - draw(st.sampled_from([0, 1, 2]))
    rlz = random_realization(rng, d, max(rank, 1))
    coeffs = realization_coefficients(rlz, order).coefficients * 10.0 ** draw(st.integers(-6, 6))
    if central:
        return CoefficientSequence(coeffs), steps, None
    size = draw(st.sampled_from(sizes))
    contractions = []
    for _ in range(steps):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        contractions.append(size * rng.integers(0, 2) * g / np.linalg.norm(g, 2))
    return CoefficientSequence(coeffs), steps, contractions


@pytest.mark.parametrize("central", [True, False])
@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([1e-14, 1e-8, 1e-3]), st.sampled_from([1e-9, 1e-6]))
def test_every_shifted_chain_output_passes_the_eigenvalue_check(central, data, eps, tol):
    # whatever the shifted chain returns, through its ball centers (zero
    # contractions, the ``central`` arm) or parametrized, of one step or
    # many, keeps the bound of its output check: the computed
    # lambda_min(T_L) of its whole output is at least -eps
    seq, steps, contractions = data.draw(shifted_chains(central))
    if contractions is None:
        contractions = [np.zeros((seq.block_dim,) * 2)] * steps
    try:
        out = extend(seq, steps, eps=eps, contractions=contractions, tol=tol)
    except (NotPsdError, SingularBlockError):
        return
    assert out.coefficients[: len(seq)].tobytes() == seq.coefficients.tobytes()
    assert np.linalg.eigvalsh(assemble(out).dense)[0] >= -eps


@settings(max_examples=200, deadline=None)
@given(
    st.booleans().flatmap(
        lambda central: shifted_chains(central, sizes=(0.5, 0.9, 1.0), max_size=24)
    ),
    st.sampled_from([1e-14, 1e-8, 1e-3]),
)
def test_shifted_chain_outputs_are_certified_exactly(chain, eps):
    # whatever a chain returns, through zero contractions or parametrized,
    # unit-norm ones among them, has T_L + eps (1 + 2^-40) I positive
    # definite in rational arithmetic, whichever rung of the output check
    # decided (T_L of size at most 24: of 1500 draws, 1073 returned, 1021
    # by the Cholesky rung and 52 by the eigvalsh rung)
    seq, steps, contractions = chain
    if contractions is None:
        contractions = [np.zeros((seq.block_dim,) * 2)] * steps
    try:
        out = extend(seq, steps, eps=eps, contractions=contractions)
    except (NotPsdError, SingularBlockError):
        return
    assert is_positive_definite(assemble(out).dense, Fraction(eps) * (1 + Fraction(1, 2**40)))


@settings(max_examples=100, deadline=None)
@given(
    st.booleans().flatmap(lambda central: shifted_chains(central, sizes=(0.5, 0.9, 1.0))),
    st.sampled_from([1e-14, 1e-8, 1e-3]),
    st.sampled_from([1e-9, 1e-6]),
)
def test_extend_blames_no_data_that_pass_their_check(chain, eps, tol):
    # NotPsdError names the data only: on data that ``certified_series``
    # passes, a chain that fails, even one a unit-norm contraction takes to
    # the boundary of the ball, raises SingularBlockError
    seq, steps, contractions = chain
    try:
        certified_series(seq, tol=tol)
    except NotPsdError:
        return
    try:
        extend(seq, steps, eps=eps, contractions=contractions, tol=tol)
    except SingularBlockError:
        pass


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


@PROPERTY
@given(determinate_problems())
def test_determinate_data_extend_as_their_realization(problem):
    seq, horizon, rlz, scale = problem
    coeffs = central_extension(seq, horizon - seq.order, 1e-9 * scale)[0]
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
        coeffs, beta = central_extension(seq, horizon - seq.order, 1e-9 * scale)
    except NotPsdError:
        return
    eigs = np.linalg.eigvalsh(assemble(CoefficientSequence(coeffs)).dense)
    rounding = 2 * len(eigs) * np.finfo(float).eps * max(-eigs[0], eigs[-1])
    assert -beta <= eigs[0] + rounding


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(determinate_problems(max_horizon=150, perturb=True), st.sampled_from([1e-8, 1e-3]))
def test_perturbed_data_are_certified_or_checked_densely(count_dense_calls, problem, eps):
    # a perturbed last coefficient: extend returns the central extension's
    # bits, with no T_L-sized Cholesky factorisation or eigvalsh where its
    # beta is within max(tol, eps), and after the output check's dense rungs
    # where it is not; a refusal is that check's, naming the central
    # extension.  No step of the shifted chain runs
    seq, horizon, _, _ = problem
    steps = horizon - seq.order
    try:
        coeffs, beta = central_extension(seq, steps, 1e-9)
    except NotPsdError:
        return
    calls = count_dense_calls()
    with mock.patch.object(extension, "_ball_state", side_effect=AssertionError):
        got = extend_outcome(seq, steps, eps)
    size = (horizon + 1) * seq.block_dim
    assert (size in calls["cholesky"] + calls["eigvalsh"]) == (beta > max(1e-9, eps))
    if isinstance(got, bytes):
        assert got == coeffs.tobytes()
    else:
        assert got[0] is SingularBlockError and "of the central extension" in got[1]


def reference_determinate_extension(seq, dense, eigs, vecs, margin, steps):
    # the determinate extension and its beta as the plain formulas give them:
    # the factor and its adjoints formed whole, the powers as the ``cumprod``
    # of the broadcast eigenvalues over a table padded to a multiple of 16
    # columns, the coefficients from one 16-column block of it at a time,
    # each array squared and summed by itself (``_frobenius_squares``), the
    # scalar tail in numpy floats; None where the data are not determinate
    n, d = len(seq), seq.block_dim
    r = int(np.count_nonzero(eigs > margin))
    if r > (n - 1) * d:
        return None
    last = n - 1 + steps
    width = 16 * (last // 16 + 1)
    lam, g = np.empty(0, dtype=complex), np.empty((d, 0), dtype=complex)
    if r:
        factor = (vecs[:, -r:] * np.sqrt(eigs[-r:])).conj().T
        target, source = factor[:, d:], factor[:, :-d]
        outer, sv, inner = np.linalg.svd(target @ source.conj().T, full_matrices=False)
        unitary = outer @ inner
        if not sv[-1] > margin:
            return None
        rotated = np.exp(1j) * unitary
        q = np.linalg.eigh(rotated + rotated.conj().T)[1]
        lam = (q.conj() * (unitary @ q)).sum(axis=0)
        lam /= np.abs(lam)
        g = factor[:, :d].conj().T @ q
    table = np.empty((r, width), dtype=complex)
    table[:, 0] = 1
    raw = np.cumprod(np.broadcast_to(lam[:, None], (r, width - 1)), axis=1, out=table[:, 1:])
    raw /= np.abs(raw)
    weights = (g[:, None, :] * g.conj()[None, :, :]).reshape(d * d, r).T
    model = np.concatenate(
        [(table[:, j : j + 16].T @ weights).reshape(16, d, d) for j in range(0, width, 16)]
    )[: last + 1]
    powers = table[:, : last + 1]
    u = np.finfo(float).eps
    defects = np.sqrt(
        _frobenius_squares(dense[:d].reshape(d, n, d).transpose(1, 0, 2) - model[:n])
    )
    model0_norm, m0_norm = np.sqrt(_frobenius_squares(np.stack([model[0], seq.coefficients[0]])))
    squares = powers.real**2 + powers.imag**2
    c = _rounding(r + 4)
    moduli = (g.real**2 + g.imag**2).sum(axis=0) @ (
        (1 + c) * (np.abs(squares - 1) + 2 * u * squares) + c
    )
    gram = model0_norm + moduli[0]
    phases = gram * (0.75 * u * last * (last + 1) - u * last)
    beta = (
        (defects[0] + 2 * defects[1:].sum()) * (1 + u)
        + u * m0_norm
        + moduli[0]
        + 2 * (moduli[1:].sum() + phases)
    )
    model[:n] = seq.coefficients
    return model, beta * (1 + _rounding(last + r + 2 * d * d + 16))


@st.composite
def rank_zero_problems(draw):
    # T_N = 0: M_0 purely imaginary (possibly 0) and every later coefficient
    # 0, so the minimal factor has no rows
    d = draw(st.integers(1, 3))
    order = draw(st.integers(1, 10))
    coeffs = np.zeros((order + 1, d, d), dtype=complex)
    entries = st.floats(-1e3, 1e3, allow_nan=False)
    skew = np.array(draw(st.lists(entries, min_size=d * d, max_size=d * d)))
    coeffs[0] = 1j * (skew.reshape(d, d) + skew.reshape(d, d).T) * draw(st.sampled_from([0, 1]))
    return CoefficientSequence(coeffs), draw(st.integers(order + 1, 200)), None, 1.0


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        determinate_problems(max_horizon=200),
        determinate_problems(max_horizon=200, perturb=True),
        rank_zero_problems(),
    ),
    st.sampled_from([1e-8, 1e-3]),
)
def test_determinate_extension_is_bitwise_the_plain_formulas(problem, eps):
    # coefficients and beta bit for bit wherever the data are determinate
    seq, horizon, _, scale = problem
    try:
        data = toeplitz._decomposed(seq, 1e-9 * scale)
    except NotPsdError:
        return
    steps = horizon - seq.order
    expected = reference_determinate_extension(seq, *data, steps)
    if expected is None:
        return
    got = central_from(seq, data, steps)
    assert np.ascontiguousarray(got[0]).tobytes() == np.ascontiguousarray(expected[0]).tobytes()
    assert float(got[1]).hex() == float(expected[1]).hex()


def seeded_determinate_problem(k):
    # order 1-10 realization data of state dimension at most N d, d = 2 or
    # 3, scaled by 10^-6 .. 10^6; odd k moves the last coefficient by a
    # relative 1e-12 .. 1e-2
    rng = np.random.default_rng([99, k])
    d, order = int(rng.integers(2, 4)), int(rng.integers(1, 11))
    rlz = random_realization(rng, d, int(rng.integers(1, order * d + 1)))
    coeffs = realization_coefficients(rlz, order).coefficients * 10.0 ** int(rng.integers(-6, 7))
    if k % 2:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        coeffs[-1] += [1e-12, 1e-9, 1e-6, 1e-2][k % 4] * float(np.abs(coeffs).max()) * g
    return CoefficientSequence(coeffs)


@pytest.mark.parametrize("k", [189, 298, 400, 589, 1112, 1909])
def test_determinate_beta_sums_each_block_in_its_layout(k):
    # the per-array sums: data whose beta changes in its last bits when
    # the defects' squares are summed as contiguous blocks instead of as
    # block columns of T_N's first block row, or those of model[0] and M_0
    # by columns instead of as one stack of contiguous blocks
    seq = seeded_determinate_problem(k)
    data = toeplitz._decomposed(seq, 1e-9)
    got = central_from(seq, data, 50)
    expected = reference_determinate_extension(seq, *data, 50)
    assert expected is not None
    assert np.ascontiguousarray(got[0]).tobytes() == np.ascontiguousarray(expected[0]).tobytes()
    assert float(got[1]).hex() == float(expected[1]).hex()


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
