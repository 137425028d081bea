import numpy as np
import pytest

from herglotz import (
    BlockToeplitz,
    CoefficientSequence,
    DimensionError,
    NotPsdError,
    assemble,
    certified_series,
    cross_block_bound_check,
    hermitian_split,
    positivity_profile,
    random_realization,
    realization_coefficients,
    reversal_conjugate,
    reverse_blocks,
)
from herglotz.toeplitz import _spectrum_profile


def fixture_sequence(seed, block_dim, state_dim, order):
    rlz = random_realization(seed, block_dim, state_dim)
    return realization_coefficients(rlz, order)


class TestCoefficientSequence:
    def test_from_scalars(self):
        seq = CoefficientSequence.from_scalars([1, 0.5, 0.25])
        assert seq.block_dim == 1
        assert seq.order == 2
        assert len(seq) == 3

    def test_truncated(self):
        seq = CoefficientSequence.from_scalars([1, 2, 3])
        assert seq.truncated(1).order == 1
        with pytest.raises(DimensionError):
            seq.truncated(7)
        with pytest.raises(DimensionError, match="truncation level -1 out of range 0..2"):
            seq.truncated(-1)

    @pytest.mark.parametrize("n", [2.5, 1.0, np.float64(1), "1"])
    def test_non_integral_truncation_level_raises(self, n):
        with pytest.raises(TypeError, match="n must be an integer"):
            CoefficientSequence.from_scalars([1, 2, 3]).truncated(n)

    def test_numpy_integer_truncation_level_counts_as_its_int(self):
        seq = CoefficientSequence.from_scalars([1, 2, 3])
        got = seq.truncated(np.int32(1)).coefficients
        assert got.tobytes() == seq.truncated(1).coefficients.tobytes()

    def test_one_matrix_is_one_block(self):
        seq = CoefficientSequence(np.eye(2))
        assert seq.order == 0 and seq.block_dim == 2

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CoefficientSequence(np.zeros((0, 2, 2))),
            lambda: CoefficientSequence.from_scalars([[1]]),
        ],
        ids=["empty-stack", "nested-scalars"],
    )
    def test_rejects_empty_or_nested_data(self, build):
        with pytest.raises(DimensionError):
            build()

    def test_rejects_ragged_blocks(self):
        with pytest.raises(DimensionError):
            CoefficientSequence(np.ones((2, 2, 3)))

    @pytest.mark.parametrize(
        "coeffs",
        [
            [[[np.inf]]],
            [[[np.nan]], [[0.0]]],
            [[[1.0]], [[np.nan]]],
            [[[np.nan, 0], [0, 1]]],
            [[[1, 0], [0, 1]], [[np.nan, 0], [0, 0]]],
        ],
    )
    def test_rejects_non_finite_data(self, coeffs):
        # no eigenvalue decides the positivity of such data, so no check
        # downstream sees it
        coeffs = np.array(coeffs, dtype=complex)
        builds = [lambda: CoefficientSequence(coeffs)]
        if coeffs.shape[1] == 1:
            builds.append(lambda: CoefficientSequence.from_scalars(coeffs.ravel()))
        for build in builds:
            with pytest.raises(NotPsdError, match="^coefficient data has a non-finite entry$"):
                build()

    def test_immutable_storage(self):
        seq = CoefficientSequence.from_scalars([1, 2])
        with pytest.raises(ValueError):
            seq.coefficients[0, 0, 0] = 9


class TestAssemble:
    def test_all_ones(self):
        bt = assemble(CoefficientSequence.from_scalars([1, 1]))
        assert np.array_equal(bt.dense, np.ones((2, 2)))

    def test_diagonal_takes_hermitian_part(self):
        bt = assemble(CoefficientSequence.from_scalars([1 + 2j, 1]))
        assert np.array_equal(bt.dense, np.ones((2, 2)))

    @pytest.mark.parametrize("seed", range(6))
    def test_diagonal_is_bitwise_the_hermitian_split(self, seed):
        # every diagonal block is hermitian_split(M_0)[0], bit for bit, at
        # scales from near underflow to near overflow
        rng = np.random.default_rng(seed)
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        coeffs = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
        coeffs *= 10.0 ** rng.choice([-300, -8, 0, 8, 307])
        seq = CoefficientSequence(coeffs)
        dense = assemble(seq).dense
        expected = hermitian_split(seq.coefficients[0])[0]
        for k in range(n):
            block = dense[k * d : (k + 1) * d, k * d : (k + 1) * d]
            assert block.tobytes() == expected.tobytes()

    def test_finite_near_overflow_stays_finite(self):
        # (M_0 + M_0*)/2 taken as a sum would overflow to inf
        seq = CoefficientSequence.from_scalars([1.7e308, 1])
        assert np.array_equal(assemble(seq).dense, [[1.7e308, 1], [1, 1.7e308]])
        assert all(r.is_strictly_positive for r in positivity_profile(seq))

    def test_layout_three_levels(self):
        bt = assemble(CoefficientSequence.from_scalars([1, 0.5, 0.25]))
        expected = np.array(
            [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]], dtype=complex
        )
        assert np.array_equal(bt.dense, expected)

    def test_exactly_hermitian_for_random_blocks(self):
        rng = np.random.default_rng(7)
        c = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        bt = assemble(CoefficientSequence(c))
        assert np.array_equal(bt.dense, bt.dense.conj().T)
        assert bt.num_blocks == 4 and bt.block_dim == 3


class TestReversal:
    def test_symmetric_fixed_point(self):
        bt = assemble(CoefficientSequence.from_scalars([1, 2]))
        assert np.array_equal(reversal_conjugate(bt).dense, bt.dense)

    def test_raw_matrix_index_reversal(self):
        out = reverse_blocks(np.array([[1.0, 2.0], [3.0, 4.0]]), 1)
        assert np.array_equal(out, [[4.0, 3.0], [2.0, 1.0]])

    def test_blockwise_reversal_keeps_blocks_intact(self):
        dense = np.arange(16).reshape(4, 4).astype(float)
        out = reverse_blocks(dense, 2)
        assert np.array_equal(out[:2, :2], dense[2:, 2:])
        assert np.array_equal(out[:2, 2:], dense[2:, :2])

    def test_eigenvalues_preserved(self):
        seq = fixture_sequence(3, 2, 5, 4)
        bt = assemble(seq)
        rev = reversal_conjugate(bt)
        before = np.linalg.eigvalsh(bt.dense)
        after = np.linalg.eigvalsh(rev.dense)
        assert np.allclose(before, after, atol=1e-12)

    def test_size_mismatch_raises(self):
        with pytest.raises(DimensionError):
            reverse_blocks(np.eye(5), 2)

    def test_non_square_raises(self):
        with pytest.raises(DimensionError, match="square"):
            reverse_blocks(np.ones((2, 4)), 2)

    @pytest.mark.parametrize("block_dim", [2.0, 2.5, np.float64(2)])
    def test_non_integral_block_dim_raises(self, block_dim):
        # 2.0 used to fail in numpy's reshape, 2.5 in the multiple test
        with pytest.raises(TypeError, match="block_dim must be an integer"):
            reverse_blocks(np.eye(4), block_dim)

    def test_zero_block_dim_still_raises_dimension_error(self):
        with pytest.raises(DimensionError, match="not a multiple of block dimension 0"):
            reverse_blocks(np.eye(4), 0)

    def test_numpy_integer_block_dim_counts_as_its_int(self):
        dense = np.arange(16).reshape(4, 4).astype(complex)
        assert np.array_equal(reverse_blocks(dense, np.int64(2)), reverse_blocks(dense, 2))


class TestPositivityProfile:
    def test_all_ones(self):
        reports = positivity_profile(CoefficientSequence.from_scalars([1, 1]), 1e-9)
        assert reports[0].lower == reports[0].upper == pytest.approx(1.0)
        assert reports[1].lower == reports[1].upper == pytest.approx(0.0, abs=1e-12)
        assert all(r.is_psd for r in reports)

    def test_identity_data(self):
        reports = positivity_profile(CoefficientSequence.from_scalars([1, 0]), 1e-9)
        assert [r.lower for r in reports] == pytest.approx([1.0, 1.0])

    def test_infeasible_level(self):
        reports = positivity_profile(CoefficientSequence.from_scalars([1, 2]), 1e-9)
        assert reports[1].upper == pytest.approx(-1.0)
        assert not reports[1].is_psd

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_non_finite_tolerance_raises(self, tol):
        with pytest.raises(ValueError, match="finite"):
            positivity_profile(CoefficientSequence.from_scalars([1, 2]), tol)

    def test_interlaced_levels_carry_a_bracket(self):
        # every level of identity data has lambda_min 1.  N = 8 is below the
        # atom rung's search, so the spectrum of T_N decides: the two ends
        # decide the levels between them, whose brackets hold 1
        reports = positivity_profile(CoefficientSequence.from_scalars([1] + [0] * 8), 1e-9)
        assert reports[0].lower == reports[0].upper == 1.0
        assert reports[-1].lower == reports[-1].upper == pytest.approx(1.0)
        for r in reports[1:-1]:
            assert r.lower < 1.0 < r.upper and r.upper - r.lower < 1e-12
            assert r.is_psd and r.is_strictly_positive

    def test_min_eigenvalues_non_increasing(self):
        # leading principal submatrices interlace
        seq = fixture_sequence(11, 2, 6, 6)
        reports = positivity_profile(seq, 1e-9)
        assert all(reports[n + 1].lower <= reports[n].upper for n in range(len(reports) - 1))

    @pytest.mark.parametrize("seed", range(5))
    def test_realization_data_stays_psd(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        h = int(rng.integers(1, 8))
        seq = fixture_sequence(seed, d, h, 6)
        assert all(r.lower >= -1e-8 for r in positivity_profile(seq, 1e-8))

    @pytest.mark.parametrize("block_dim", [2, 3, 4])
    def test_cli_shaped_data_are_decided_from_a_leading_block(
        self, count_dense_calls, block_dim
    ):
        # the cli benchmark's data: order 64 and rank 2 d + 2.  The atom rung
        # takes one eigh of each leading block T_1, T_2, T_4; T_1 and T_2
        # have more eigenvalues above the margin than their past blocks have
        # columns (d and 2 d), so only T_4's factor is formed, with one SVD
        # of its r x r cross product.  The data are determinate at level 4
        # (rank T_4 = rank T_3), and the continuation of T_4, whose atoms
        # cost one more eigh (of size r), proves every level PSD.  Levels
        # 0 .. 4 are read from the spectrum of T_4, the rung's own assembly,
        # which decomposes level 0 and one level between; every later level
        # carries the bracket [-tol, lambda_4 + margin].  Neither the profile
        # nor the data check assembles T_N or runs a Cholesky factorisation
        tol, d = 1e-9, block_dim
        seq = fixture_sequence(11, d, 2 * d + 2, 64)
        gallop = [2 * d, 3 * d, 5 * d]
        calls = count_dense_calls()
        reports = positivity_profile(seq, tol)
        assert calls["assemble"] == gallop
        assert calls["eigh"] == gallop + [2 * d + 2]
        assert calls["svd"] == [2 * d + 2]
        assert calls["cholesky"] == []
        assert calls["eigvalsh"][:2] == [5 * d, d] and len(calls["eigvalsh"]) == 3
        assert reports[:5] == _spectrum_profile(seq.truncated(4), tol)
        assert all(r.lower >= -tol and r.is_psd for r in reports)
        # level n is singular where (n + 1) d passes the rank
        assert all(not r.is_strictly_positive for r in reports[(2 * d + 2) // d :])
        assert all(r.lower == -tol and reports[4].upper < r.upper <= tol for r in reports[5:])
        calls = count_dense_calls()
        assert certified_series(seq, tol=tol).certified
        assert calls["assemble"] == gallop
        assert calls["eigh"] == gallop + [2 * d + 2]
        assert calls["cholesky"] == [] and calls["eigvalsh"] == []

    @pytest.mark.parametrize(
        "values", [[1] + [0] * 64, 0.5 ** np.arange(65)], ids=["identity", "geometric"]
    )
    def test_full_rank_positive_data_fall_back_to_the_spectrum(
        self, count_dense_calls, values
    ):
        # positive definite data: the atom rung's search, one eigh of T_1,
        # T_2 and T_4, finds no determinate level: each T_s has full rank
        # s + 1, past the s columns of its past block, so no factor is formed
        # and no SVD runs.  The spectrum of T_N then decides, as it did
        # without the rung, with no Cholesky factorisation
        seq = CoefficientSequence.from_scalars(values)
        calls = count_dense_calls()
        reports = positivity_profile(seq, 1e-9)
        assert calls["eigh"] == [2, 3, 5]
        assert calls["svd"] == []
        assert calls["cholesky"] == []
        assert calls["assemble"] == [2, 3, 5, 65]
        assert calls["eigvalsh"][0] == 65
        assert reports[-1].lower == reports[-1].upper
        assert all(r.is_psd and r.is_strictly_positive for r in reports)
        rung_calls = calls["eigvalsh"]
        calls = count_dense_calls()
        assert _spectrum_profile(seq, 1e-9) == reports
        assert calls["eigvalsh"] == rung_calls and calls["cholesky"] == []

    def test_level_within_the_margin_of_tol_is_left_to_the_spectrum(self, count_dense_calls):
        # the second component has lambda_min tol at level 0 and tol / 2 at
        # level 1, within the margin of tol: no bracket proves a level not
        # strictly positive, and the spectrum of T_N decides every level
        # (N = 4 is below the atom rung's search)
        tol = 1e-9
        coeffs = np.zeros((5, 2, 2))
        coeffs[0] = np.diag([1.0, tol])
        coeffs[1, 1, 1] = tol / 2
        seq = CoefficientSequence(coeffs)
        calls = count_dense_calls()
        reports = positivity_profile(seq, tol)
        assert calls["eigvalsh"][0] == 10
        assert reports == _spectrum_profile(seq, tol)
        assert reports[-1].lower == reports[-1].upper
        assert all(r.is_psd and not r.is_strictly_positive for r in reports)

    def test_atom_level_within_the_margin_of_tol_is_left_to_the_spectrum(
        self, count_dense_calls
    ):
        # rank-2 scalar data of order 31 are determinate at level 2, and the
        # atom rung passes there at tol = 1e-12, but lambda_2 plus the margin
        # 4 m u nu, 1.09e-12, passes tol: that bracket would not prove the
        # later levels not strictly positive, so after the profile of T_2 the
        # spectrum of T_N decides every level
        tol = 1e-12
        seq = realization_coefficients(random_realization(0, 1, 2), 31)
        calls = count_dense_calls()
        reports = positivity_profile(seq, tol)
        assert calls["assemble"] == [2, 3, 32] and calls["cholesky"] == []
        # the profile of T_2 (levels 2, 0, 1), then that of T_N
        assert calls["eigvalsh"][:4] == [3, 1, 2, 32]
        assert reports == _spectrum_profile(seq, tol)
        assert reports[-1].lower == reports[-1].upper

    def test_full_rank_data_failing_at_the_top_are_bisected_arithmetically(
        self, count_dense_calls
    ):
        # 0.5^n with 0.9 added to M_32: only T_32 fails, and no eigenvalue of
        # it decides a level, so the bisection halves each interval
        values = 0.5 ** np.arange(33)
        values[-1] += 0.9
        calls = count_dense_calls()
        reports = positivity_profile(CoefficientSequence.from_scalars(values), 1e-9)
        assert calls["eigvalsh"] == [33, 1, 17, 25, 29, 31, 32]
        decomposed = [n for n, r in enumerate(reports) if r.lower == r.upper]
        assert decomposed == [0, 16, 24, 28, 30, 31, 32]
        assert [r.is_psd for r in reports] == [True] * 32 + [False]


class TestCrossBlockBound:
    def test_all_ones_equality_case(self):
        bt = assemble(CoefficientSequence.from_scalars([1, 1]))
        slack, = cross_block_bound_check(bt, [((0, 1), [1.0], [1.0])])
        assert slack == pytest.approx(0.0, abs=1e-12)

    def test_identity_unit_slack(self):
        bt = assemble(CoefficientSequence.from_scalars([1, 0]))
        slack, = cross_block_bound_check(bt, [((0, 1), [1.0], [1.0])])
        assert slack == pytest.approx(1.0)

    def test_direct_arithmetic(self):
        # raw PSD block matrix, not an assembled Toeplitz
        bt = BlockToeplitz(block_dim=1, num_blocks=2, dense=np.array([[2.0, 1.0], [1.0, 1.0]]))
        slack, = cross_block_bound_check(bt, [((0, 1), [1.0], [1.0])])
        assert slack == pytest.approx(1.0)

    def test_not_psd_contract_violation(self):
        bt = assemble(CoefficientSequence.from_scalars([1, 2]))
        with pytest.raises(NotPsdError):
            cross_block_bound_check(bt, [((0, 1), [1.0], [1.0])])

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_non_finite_tolerance_raises(self, tol):
        # infeasible data: a NaN tolerance would blame the matrix for its
        # asymmetry, and an infinite one would pass it
        bt = assemble(CoefficientSequence.from_scalars([1, 2]))
        with pytest.raises(ValueError, match="tolerance must be finite"):
            cross_block_bound_check(bt, [((0, 1), [1.0], [1.0])], tol=tol)

    def test_bad_block_index(self):
        bt = assemble(CoefficientSequence.from_scalars([1, 0]))
        with pytest.raises(DimensionError):
            cross_block_bound_check(bt, [((0, 5), [1.0], [1.0])])

    @pytest.mark.parametrize(
        "index, error",
        [
            ((0.5, 1), TypeError),
            ((0, 1.0), TypeError),
            ((np.float64(0), 1), TypeError),
            ((0, 5), DimensionError),
        ],
    )
    def test_bad_block_index_is_refused_before_the_eigensolve(
        self, count_dense_calls, index, error
    ):
        # a last sample with a bad index is refused before the matrix's
        # eigvalsh; a float index used to pass the range test and fail in
        # the slicing, after it
        bt = assemble(CoefficientSequence.from_scalars([1, 0.5]))
        calls = count_dense_calls()
        with pytest.raises(error, match="block ind"):
            cross_block_bound_check(bt, [((0, 1), [1.0], [1.0]), (index, [1.0], [1.0])])
        assert all(sizes == [] for sizes in calls.values())

    def test_numpy_integer_block_indices_count_as_their_ints(self):
        bt = assemble(CoefficientSequence.from_scalars([1, 0.5]))
        index = (np.int64(0), np.int32(1))
        got = cross_block_bound_check(bt, [(index, [1.0], [1.0])])
        assert got == cross_block_bound_check(bt, [((0, 1), [1.0], [1.0])])

    @pytest.mark.parametrize("v, w", [([1.0, 0.0], [1.0]), ([1.0], [1.0, 0.0]), ([], [1.0])])
    def test_sample_vector_of_wrong_length(self, v, w):
        bt = assemble(CoefficientSequence.from_scalars([1, 0.5]))
        with pytest.raises(DimensionError, match="sample vectors must have d = 1 entries"):
            cross_block_bound_check(bt, [((0, 1), v, w)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_sample_vector(self, bad):
        bt = assemble(CoefficientSequence.from_scalars([1, 0.5]))
        for v, w in (([bad], [1.0]), ([1.0], [bad])):
            with pytest.raises(ValueError, match="sample vectors must be finite"):
                cross_block_bound_check(bt, [((0, 1), v, w)])

    @pytest.mark.parametrize(
        "bad, error",
        [
            (((0, 5), [1.0], [1.0]), DimensionError),
            (((0, 1), [1.0, 2.0], [1.0]), DimensionError),
            (((0, 1), [np.nan], [1.0]), ValueError),
        ],
    )
    def test_every_sample_is_checked_before_any_slack(self, monkeypatch, bad, error):
        # a bad last sample is refused before the first one's slack, whose
        # first step is np.real of a quadratic form
        def fail(*args):
            raise AssertionError("a slack was computed before every sample was checked")

        bt = assemble(CoefficientSequence.from_scalars([1, 0.5]))
        monkeypatch.setattr(np, "real", fail)
        with pytest.raises(error):
            cross_block_bound_check(bt, [((0, 1), [1.0], [1.0]), bad])

    @pytest.mark.parametrize("seed", range(8))
    def test_random_psd_slacks_nonnegative(self, seed):
        rng = np.random.default_rng(300 + seed)
        d = int(rng.integers(1, 4))
        seq = fixture_sequence(seed, d, int(rng.integers(2, 8)), 5)
        bt = assemble(seq)
        samples = []
        for _ in range(5):
            l, j = rng.integers(0, bt.num_blocks, 2)
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            samples.append(((int(l), int(j)), v, w))
        slacks = cross_block_bound_check(bt, samples, tol=1e-8)
        assert all(s >= -1e-9 for s in slacks)
