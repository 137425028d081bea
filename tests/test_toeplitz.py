import numpy as np
import pytest

from herglotz import (
    BlockToeplitz,
    CoefficientSequence,
    DimensionError,
    NotPsdError,
    assemble,
    cross_block_bound_check,
    positivity_profile,
    random_realization,
    realization_coefficients,
    reversal_conjugate,
    reverse_blocks,
)


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
        # every level of identity data has lambda_min 1: the two ends decide
        # the levels between them, whose brackets hold 1
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

    def test_cli_shaped_data_takes_logarithmically_many_decompositions(self, count_dense_calls):
        # the size of the cli benchmark's data: the verdicts change once, so
        # the bisection decomposes O(log N) of the N + 1 levels
        order = 64
        seq = fixture_sequence(11, 2, 6, order)
        calls = count_dense_calls()
        positivity_profile(seq, 1e-9)
        assert len(calls["eigvalsh"]) <= 2 * int(np.ceil(np.log2(order + 1))) + 2


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
