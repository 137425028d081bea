import re
import tracemalloc

import numpy as np
import pytest

from herglotz import series as series_module
from herglotz import toeplitz
from herglotz import (
    CoefficientSequence,
    DimensionError,
    DomainError,
    FactorizationMismatchError,
    FixtureError,
    HerglotzSeries,
    InsufficientDataError,
    NotPsdError,
    RangeCompatibilityError,
    Realization,
    assemble,
    certified_series,
    compose_reduced,
    eval_realization,
    eval_series,
    gram_isometries,
    hermitian_split,
    kernel_gram,
    kernel_finite_section,
    kernel_value,
    minimal_factorization,
    psd_report,
    random_realization,
    realization_coefficients,
    reduce,
    series_tail_bound,
    solve_cf,
)
from herglotz.linalg import _hermitian


def scalar_series(values, radius=0.9):
    return HerglotzSeries(CoefficientSequence.from_scalars(values), declared_radius=radius)


def all_ones_series(order, radius=0.9):
    return scalar_series(np.ones(order + 1), radius)


def fixture_realization(seed, block_dim=2, state_dim=5):
    return random_realization(seed, block_dim, state_dim)


class TestEvalSeries:
    def test_all_ones_at_half(self):
        # (1 + z) / (1 - z) at z = 1/2
        phi = all_ones_series(200)
        assert abs(complex(eval_series(phi, 0.5)[0, 0]) - 3.0) <= 1e-6

    def test_origin_returns_constant_term(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        phi = HerglotzSeries(CoefficientSequence(c))
        assert np.array_equal(eval_series(phi, 0.0), c[0])

    def test_geometric_at_half(self):
        # (1 + z/2) / (1 - z/2) at z = 1/2
        phi = scalar_series(0.5 ** np.arange(65))
        assert abs(complex(eval_series(phi, 0.5)[0, 0]) - 5 / 3) <= 1e-6

    def test_outside_radius_raises(self):
        with pytest.raises(DomainError):
            eval_series(all_ones_series(4), 0.95)

    @pytest.mark.parametrize("z", [complex(np.nan, 0), complex(0, np.nan), complex(np.inf, 0)])
    def test_non_finite_point_raises(self, z):
        # every disk check reads "not inside", which a NaN modulus fails
        phi = all_ones_series(4)
        seq = phi.seq
        rlz = Realization(D=np.zeros((1, 1)), C=np.ones((1, 1)), V=np.ones((1, 1)))
        checks = (
            lambda: eval_series(phi, z),
            lambda: eval_series(phi, [0.5, z]),
            lambda: series_tail_bound(phi, z),
            lambda: series_tail_bound(phi, [0.5, z]),
            lambda: kernel_value(phi, 0.5, z),
            lambda: kernel_finite_section(seq, z, 0.5, 2),
            lambda: kernel_finite_section(seq, 0.5, z, 2),
            lambda: eval_realization(rlz, z),
        )
        for check in checks:
            with pytest.raises(DomainError):
                check()

    def test_two_dimensional_points_raise(self):
        with pytest.raises(DimensionError, match="1-d array"):
            eval_series(all_ones_series(4), np.zeros((2, 2)))

    def test_tail_bound_dominates_truncation_error(self):
        exact = 3.0
        for order in [10, 20, 40]:
            phi = all_ones_series(order)
            err = abs(complex(eval_series(phi, 0.5)[0, 0]) - exact)
            assert err <= series_tail_bound(phi, 0.5)

    def test_tail_bound_formula(self):
        phi = all_ones_series(9)
        assert series_tail_bound(phi, 0.5) == pytest.approx(2 * 0.5**10 / 0.5)


class TestKernelValue:
    def test_constant_function_at_origin(self):
        assert np.allclose(kernel_value(scalar_series([1.0]), 0, 0), [[2.0]])

    def test_all_ones_mixed_points(self):
        phi = all_ones_series(200)
        assert abs(complex(kernel_value(phi, 0.0, 0.5)[0, 0]) - 4.0) <= 1e-6

    def test_all_ones_diagonal_point(self):
        phi = all_ones_series(200)
        assert abs(complex(kernel_value(phi, 0.5, 0.5)[0, 0]) - 8.0) <= 1e-6

    def test_hermitian_symmetry_between_points(self):
        rlz = fixture_realization(5)
        phi = HerglotzSeries(realization_coefficients(rlz, 64))
        k_zw = kernel_value(phi, 0.3 + 0.2j, -0.1 + 0.4j)
        k_wz = kernel_value(phi, -0.1 + 0.4j, 0.3 + 0.2j)
        assert np.array_equal(k_zw, k_wz.conj().T)


class TestKernelGram:
    def test_single_point_constant(self):
        rep = kernel_gram(scalar_series([1.0]), [0.0])
        assert rep.min_eigenvalue == pytest.approx(2.0)
        assert rep.is_psd

    def test_all_ones_rank_one_gram(self):
        rep = kernel_gram(all_ones_series(200), [0.0, 0.5])
        assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-6)
        assert rep.is_psd

    def test_realization_fixture_positive(self):
        rng = np.random.default_rng(17)
        rlz = fixture_realization(17)
        phi = HerglotzSeries(realization_coefficients(rlz, 256))
        pts = 0.9 * np.sqrt(rng.uniform(0, 1, 16)) * np.exp(2j * np.pi * rng.uniform(0, 1, 16))
        rep = kernel_gram(phi, pts)
        assert rep.min_eigenvalue >= -1e-6

    def test_compressed_matches_dense_for_scalar(self):
        phi = all_ones_series(64)
        pts = [0.1, 0.4, -0.3j]
        dense = kernel_gram(phi, pts)
        compressed = kernel_gram(phi, pts, vectors=[[1.0]] * 3)
        assert compressed.min_eigenvalue == pytest.approx(dense.min_eigenvalue, abs=1e-12)

    def test_compressed_fixture_positive(self):
        rng = np.random.default_rng(23)
        rlz = fixture_realization(23)
        phi = HerglotzSeries(realization_coefficients(rlz, 256))
        pts = 0.8 * np.exp(2j * np.pi * rng.uniform(0, 1, 6))
        vecs = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        rep = kernel_gram(phi, pts, vectors=list(vecs))
        assert rep.min_eigenvalue >= -1e-6

    def test_needs_points(self):
        with pytest.raises(DimensionError):
            kernel_gram(scalar_series([1.0]), [])

    @pytest.mark.parametrize(
        "points, shape", [(0.5, "()"), ([[0.1, 0.2]], "(1, 2)"), (np.zeros((2, 1)), "(2, 1)")]
    )
    def test_points_must_be_one_dimensional(self, points, shape):
        message = f"expected points of shape (m,), got shape {shape}"
        with pytest.raises(DimensionError, match=re.escape(message)):
            kernel_gram(scalar_series([1.0]), points)

    @pytest.mark.parametrize(
        "vectors, shape",
        [(np.ones((2, 3)), "(2, 3)"), (np.ones((3, 2)), "(3, 2)"), (np.ones(4), "(4,)")],
    )
    def test_vectors_must_be_one_d_vector_per_point(self, vectors, shape):
        phi = HerglotzSeries(realization_coefficients(fixture_realization(2), 8))
        message = f"expected one vector per point, of shape (m, d) = (2, 2), got shape {shape}"
        with pytest.raises(DimensionError, match=re.escape(message)):
            kernel_gram(phi, [0.1, 0.2j], vectors)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vectors_are_refused(self, monkeypatch, bad):
        # before any evaluation, not reported as a NaN eigenvalue
        monkeypatch.setattr(series_module, "eval_series", None)
        with pytest.raises(ValueError, match="vectors must be finite"):
            kernel_gram(scalar_series([1.0, 0.5]), [0.1], vectors=[[bad]])

    def test_arguments_are_checked_before_any_evaluation(self, monkeypatch):
        def fail(*args):
            raise AssertionError("evaluated before the arguments were checked")

        monkeypatch.setattr(series_module, "eval_series", fail)
        phi = HerglotzSeries(realization_coefficients(fixture_realization(2), 8))
        for points, vectors in ((0.5, None), ([0.1, 0.2j], np.ones((2, 3)))):
            with pytest.raises(DimensionError):
                kernel_gram(phi, points, vectors)

    def test_compressed_forms_no_block_tensor(self):
        # one (m, d, m, d) complex array at m = 400, d = 4 is 41 MB; the
        # compressed path holds a few m x m and m x T arrays (2.6 MB and
        # 1.6 MB each)
        m, d = 400, 4
        rng = np.random.default_rng(9)
        phi = HerglotzSeries(realization_coefficients(fixture_realization(9, d, 6), 256))
        pts = 0.8 * np.sqrt(rng.uniform(0, 1, m)) * np.exp(2j * np.pi * rng.uniform(0, 1, m))
        vecs = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
        tracemalloc.start()
        try:
            rep = kernel_gram(phi, pts, vecs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.min_eigenvalue >= -1e-6
        assert peak < 41e6 / 2

    @pytest.mark.parametrize("compressed", [False, True])
    def test_tolerance_is_tol_plus_m_times_the_largest_tail(self, compressed):
        # the Gram is Hermitian by construction: no skew term in the
        # allowance.  At tol = 0 and a tail of about 1e-17, a skew norm of
        # order 1e-15 would show
        rng = np.random.default_rng(31)
        m, d, tol = 40, 2, 0.0
        phi = HerglotzSeries(realization_coefficients(fixture_realization(31), 256))
        pts = 0.85 * np.sqrt(rng.uniform(0, 1, m)) * np.exp(2j * np.pi * rng.uniform(0, 1, m))
        vecs = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
        rep = kernel_gram(phi, pts, vecs if compressed else None, tol=tol)
        assert rep.tolerance_used == tol + m * max(series_tail_bound(phi, pts))

    def test_dense_gram_holds_one_block_tensor_and_its_eigensolve(self):
        # the (m, d, m, d) tensor at m = 200, d = 2 is 2.56 MB; dividing it
        # in place and skipping the skew and symmetrisation passes took the
        # peak from 3.05 to 2.01 times that
        m, d = 200, 2
        rng = np.random.default_rng(13)
        phi = HerglotzSeries(realization_coefficients(fixture_realization(13, d, 5), 256))
        pts = 0.9 * np.sqrt(rng.uniform(0, 1, m)) * np.exp(2j * np.pi * rng.uniform(0, 1, m))
        tracemalloc.start()
        try:
            rep = kernel_gram(phi, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.min_eigenvalue >= -1e-6
        assert peak <= 2.5 * (m * d) ** 2 * 16


def reference_hermitian(m):
    # the Hermitian part as two halves and one sum
    return m / 2 + m.conj().T / 2


def reference_power_sum(phi, z):
    # M_0 + 2 sum z^n M_n with the powers as the cumprod of the broadcast
    # points and the sum as one tensordot over the block stack
    z = np.asarray(z, dtype=complex)
    coeffs = phi.seq.coefficients
    n = phi.seq.order
    powers = np.cumprod(np.broadcast_to(z[..., None], z.shape + (n,)), axis=-1)
    return coeffs[0] + 2 * np.tensordot(powers, coeffs[1:], axes=(-1, 0))


def reference_denominators(pts):
    return reference_hermitian(1 - np.multiply.outer(pts, pts.conj()))


def reference_gram(phi, pts, vecs=None):
    # dense: the broadcast (m, d, m, d) block tensor over the broadcast
    # denominators; compressed: the einsum pairing of the values with the
    # vectors, over the denominators
    values = reference_power_sum(phi, pts)
    if vecs is None:
        m, d = len(pts), phi.seq.block_dim
        num = values[:, :, None, :] + values.conj().transpose(2, 0, 1)[None]
        return (num / reference_denominators(pts)[:, None, :, None]).reshape(m * d, m * d)
    u_conj = np.einsum("lb,lba->la", vecs.conj(), values)
    a = u_conj @ vecs.T
    return (a + a.conj().T) / reference_denominators(pts)


def reference_tail(phi, pts):
    r = np.abs(pts)
    return 2 * phi._max_block_norm * r ** (phi.seq.order + 1) / (1 - r)


def grid_cases(seed, count):
    # seeded series and grids: block dimension 1-4; orders 0, 1 and 2 half
    # the time, else 3-300; realization data, or Gaussian coefficients
    # scaled by 10^-3 .. 10^3; 1-40 points in the disk of radius 0.89, a
    # quarter of them moved to the origin, the real or the imaginary axis;
    # and one vector per point
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(1, 5))
        order = int(rng.integers(0, 3)) if rng.random() < 0.5 else int(rng.integers(3, 301))
        if rng.random() < 0.5:
            rlz = random_realization(rng, d, int(rng.integers(1, 7)))
            seq = realization_coefficients(rlz, order)
        else:
            shape = (order + 1, d, d)
            coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            seq = CoefficientSequence(coeffs * 10.0 ** int(rng.integers(-3, 4)))
        m = int(rng.integers(1, 41))
        pts = 0.89 * np.sqrt(rng.uniform(0, 1, m)) * np.exp(2j * np.pi * rng.uniform(0, 1, m))
        moved = rng.random(m) < 0.25
        pts[moved] = rng.choice([0, 1, 1j], moved.sum()) * pts[moved].real
        vecs = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
        yield HerglotzSeries(seq, declared_radius=0.9), pts, vecs


class TestKernelGridBits:
    """The kernel grid is bitwise the plain reference forms kept here: the
    power sum by one ``tensordot``, the Hermitian part as two halves summed,
    the denominators as the Hermitian part of 1 - z_l conj(z_j), the dense
    Gram as the broadcast block tensor over them, the compressed one as the
    ``einsum`` pairing, and the report as the least eigenvalue of that Gram
    against tol plus m times the largest tail bound of the array."""

    CASES = 400

    def test_power_sum_is_the_tensordot_sum(self):
        for phi, pts, _ in grid_cases(1, self.CASES):
            for z in (pts, pts[0], complex(pts[-1])):
                assert eval_series(phi, z).tobytes() == reference_power_sum(phi, z).tobytes()

    def test_gram_is_the_reference_form(self):
        for phi, pts, vecs in grid_cases(2, self.CASES):
            for v in (None, vecs):
                gram = series_module._gram_matrix(phi, pts, v)
                assert gram.tobytes() == reference_gram(phi, pts, v).tobytes()

    def test_kernel_value_is_the_reference_block(self):
        for phi, pts, _ in grid_cases(3, self.CASES):
            z, w = pts[0], pts[-1]
            d = phi.seq.block_dim
            expected = reference_gram(phi, np.array([z, w]))[:d, d:]
            assert kernel_value(phi, z, w).tobytes() == expected.tobytes()

    def test_report_is_the_reference_report(self):
        for phi, pts, vecs in grid_cases(4, self.CASES):
            for v, tol in ((None, 1e-6), (vecs, 0.0)):
                rep = kernel_gram(phi, pts, v, tol=tol)
                min_eig = float(np.linalg.eigvalsh(reference_gram(phi, pts, v))[0])
                widened = tol + len(pts) * float(np.max(reference_tail(phi, pts)))
                assert rep.min_eigenvalue == min_eig and rep.tolerance_used == widened
                assert rep.is_psd == (min_eig >= -widened)

    def test_denominators_are_the_hermitian_part_of_one_minus_the_outer_product(self):
        for _, pts, _ in grid_cases(5, self.CASES):
            den = series_module._szego_denominators(pts)
            assert den.tobytes() == reference_denominators(pts).tobytes()

    def test_hermitian_part_is_the_two_halves_summed(self):
        # zeros of either sign, subnormals and parts near the float maximum,
        # where halving before the sum decides the bits, in every position
        rng = np.random.default_rng(6)
        parts = np.array(
            [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.7e308, -1.7e308, 1.0, -3.5]
        )
        for _ in range(2000):
            n = int(rng.integers(1, 6))
            special = rng.choice(parts, (2, n, n))
            gaussian = rng.standard_normal((2, n, n))
            real, imag = np.where(rng.random((2, n, n)) < 0.7, special, gaussian)
            m = real + 1j * imag
            for a in (m, m.real.copy()):
                got = _hermitian(a)
                assert got.dtype == reference_hermitian(a).dtype
                assert got.tobytes() == reference_hermitian(a).tobytes()


class TestTailNorm:
    """max_n ||M_n||_2 is one batched SVD per series, taken on first use, of
    the blocks that can reach it."""

    @staticmethod
    def uncached_bound(phi, z):
        r = np.abs(np.asarray(z, dtype=complex))
        max_norm = float(np.linalg.norm(phi.seq.coefficients, 2, axis=(1, 2)).max())
        return 2 * max_norm * r ** (phi.seq.order + 1) / (1 - r)

    @pytest.fixture
    def block_norms(self, monkeypatch):
        # counts the np.linalg.norm calls over the block axes
        calls = []
        norm = np.linalg.norm

        def counting(x, *args, **kwargs):
            if kwargs.get("axis", args[1] if len(args) > 1 else None) == (1, 2):
                calls.append(np.shape(x))
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting)
        return calls

    def test_values_are_the_uncached_formula(self):
        phi = HerglotzSeries(realization_coefficients(fixture_realization(6), 32))
        pts = np.array([0.0, 0.5, -0.3 + 0.7j, 0.89j])
        for _ in range(2):
            assert series_tail_bound(phi, 0.5) == self.uncached_bound(phi, 0.5)
            assert np.array_equal(series_tail_bound(phi, pts), self.uncached_bound(phi, pts))

    def test_computed_once_per_series(self, block_norms):
        rng = np.random.default_rng(6)
        phi = HerglotzSeries(realization_coefficients(fixture_realization(6), 32))
        assert block_norms == []
        pts = 0.8 * np.exp(2j * np.pi * rng.uniform(0, 1, 5))
        vecs = rng.standard_normal((5, 2)) + 0j
        kernel_gram(phi, pts)
        assert len(block_norms) == 1
        kernel_gram(phi, pts)
        kernel_gram(phi, pts, vecs)
        series_tail_bound(phi, pts)
        assert len(block_norms) == 1
        HerglotzSeries(phi.seq)._max_block_norm
        assert len(block_norms) == 2

    def test_construction_and_solve_compute_no_block_norm(self, block_norms):
        seq = realization_coefficients(fixture_realization(6), 4)
        HerglotzSeries(seq)
        certified_series(seq)
        solve_cf(seq, 16)
        assert block_norms == []


class TestFiniteSectionKernel:
    def test_order_zero_constant(self):
        seq = CoefficientSequence.from_scalars([1.0])
        assert np.allclose(kernel_finite_section(seq, 0, 0, 0), [[2.0]])

    def test_all_ones_approaches_closed_form(self):
        seq = CoefficientSequence.from_scalars(np.ones(12))
        val10 = complex(kernel_finite_section(seq, 0.5, 0.5, 10)[0, 0])
        assert abs(val10 - 8.0) <= 0.5
        errs = [
            abs(complex(kernel_finite_section(seq, 0.5, 0.5, n)[0, 0]) - 8.0)
            for n in range(1, 12)
        ]
        assert all(e2 <= e1 for e1, e2 in zip(errs, errs[1:]))

    def test_identity_data_is_geometric_sum(self):
        seq = CoefficientSequence.from_scalars([1, 0, 0, 0, 0, 0])
        z, w = 0.4 + 0.3j, -0.2 + 0.5j
        for n in range(6):
            expected = 2 * sum((z * np.conj(w)) ** k for k in range(n + 1))
            assert np.allclose(kernel_finite_section(seq, z, w, n), [[expected]])

    def test_insufficient_coefficients(self):
        seq = CoefficientSequence.from_scalars([1, 0.5])
        with pytest.raises(InsufficientDataError):
            kernel_finite_section(seq, 0.1, 0.1, 5)

    def test_outside_disk(self):
        seq = CoefficientSequence.from_scalars([1.0])
        with pytest.raises(DomainError):
            kernel_finite_section(seq, 1.0, 0.0, 0)

    @pytest.mark.parametrize("n", [2.5, 1.0, np.float64(1)])
    def test_non_integral_order_raises_before_any_work(self, monkeypatch, n):
        # 2.5 used to fail in numpy's slicing, after the order test
        def fail(*args):
            raise AssertionError("the matrix was assembled before the order was checked")

        monkeypatch.setattr(series_module, "assemble", fail)
        seq = CoefficientSequence.from_scalars([1, 0.5, 0.25])
        with pytest.raises(TypeError, match="n must be an integer"):
            kernel_finite_section(seq, 0.1, 0.2, n)

    def test_numpy_integer_order_counts_as_its_int(self):
        seq = CoefficientSequence.from_scalars([1, 0.5, 0.25])
        got = kernel_finite_section(seq, 0.1, 0.2, np.int64(2))
        assert got.tobytes() == kernel_finite_section(seq, 0.1, 0.2, 2).tobytes()

    @pytest.mark.parametrize("n, error", [(-1, DimensionError), (3, InsufficientDataError)])
    def test_order_out_of_range_keeps_its_error(self, n, error):
        with pytest.raises(error):
            kernel_finite_section(CoefficientSequence.from_scalars([1, 0.5, 0.25]), 0.1, 0.2, n)


class TestRealizationCoefficients:
    def test_scalar_all_ones(self):
        rlz = Realization(D=np.zeros((1, 1)), C=np.ones((1, 1)), V=np.ones((1, 1)))
        seq = realization_coefficients(rlz, 6)
        assert np.allclose(seq.coefficients, np.ones((7, 1, 1)))

    def test_zero_input_map(self):
        rlz = Realization(D=np.zeros((2, 2)), C=np.zeros((3, 2)), V=np.eye(3))
        seq = realization_coefficients(rlz, 4)
        assert not seq.coefficients.any()

    def test_unimodular_rank_one_family(self):
        theta = 0.7
        rlz = Realization(
            D=np.zeros((1, 1)), C=np.ones((1, 1)), V=np.array([[np.exp(1j * theta)]])
        )
        seq = realization_coefficients(rlz, 5)
        expected = np.exp(-1j * theta * np.arange(6)).reshape(-1, 1, 1)
        assert np.allclose(seq.coefficients, expected)
        dense = assemble(seq).dense
        eigs = np.linalg.eigvalsh(dense)
        assert eigs[0] >= -1e-12
        assert eigs[-1] == pytest.approx(6.0)  # rank one, trace 6

    def test_non_isometric_v_raises(self):
        rlz = Realization(D=np.zeros((1, 1)), C=np.ones((1, 1)), V=2 * np.ones((1, 1)))
        with pytest.raises(FixtureError):
            realization_coefficients(rlz, 3)

    def test_non_skew_d_raises(self):
        rlz = Realization(D=np.ones((1, 1)), C=np.ones((1, 1)), V=np.ones((1, 1)))
        with pytest.raises(FixtureError):
            realization_coefficients(rlz, 3)

    def test_negative_order_raises(self):
        # refused as extend refuses a negative step count, not read as order 0
        with pytest.raises(ValueError, match="order must be nonnegative, got -3"):
            realization_coefficients(random_realization(0, 2, 3), -3)

    @pytest.mark.parametrize("n_max", [2.5, 2.0, np.float64(2), -1.5])
    def test_non_integral_order_raises_before_the_realization_is_checked(
        self, monkeypatch, n_max
    ):
        # the realization check is where the first matmul would run
        def fail(*args):
            raise AssertionError("the realization was checked before the order")

        monkeypatch.setattr(series_module, "_check_realization", fail)
        with pytest.raises(TypeError, match="n_max must be an integer"):
            realization_coefficients(random_realization(0, 2, 3), n_max)

    def test_numpy_integer_order_counts_as_its_int(self):
        rlz = random_realization(0, 2, 3)
        got = realization_coefficients(rlz, np.int64(5)).coefficients
        assert got.tobytes() == realization_coefficients(rlz, 5).coefficients.tobytes()


class TestEvalRealization:
    def test_scalar_at_origin(self):
        rlz = Realization(D=np.zeros((1, 1)), C=np.ones((1, 1)), V=np.ones((1, 1)))
        assert np.allclose(eval_realization(rlz, 0.0), [[1.0]])

    def test_scalar_at_half(self):
        rlz = Realization(D=np.zeros((1, 1)), C=np.ones((1, 1)), V=np.ones((1, 1)))
        assert np.allclose(eval_realization(rlz, 0.5), [[3.0]])

    def test_pure_imaginary_constant(self):
        rlz = Realization(D=np.array([[1j]]), C=np.zeros((1, 1)), V=np.ones((1, 1)))
        for z in [0.0, 0.5, -0.3 + 0.6j]:
            assert np.allclose(eval_realization(rlz, z), [[1j]])

    def test_outside_disk_raises(self):
        rlz = Realization(D=np.zeros((1, 1)), C=np.ones((1, 1)), V=np.ones((1, 1)))
        with pytest.raises(DomainError):
            eval_realization(rlz, 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_oracle_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        h = int(rng.integers(1, 9))
        rlz = random_realization(seed, d, h)
        phi = HerglotzSeries(realization_coefficients(rlz, 256))
        c_norm = np.linalg.norm(np.asarray(rlz.C), 2)
        for _ in range(4):
            z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            gap = np.linalg.norm(eval_realization(rlz, z) - eval_series(phi, z), 2)
            assert gap <= 2 * c_norm**2 * abs(z) ** 257 / (1 - abs(z)) + 1e-9


REALIZATION_ENTRY_POINTS = {
    "eval_realization": lambda rlz: eval_realization(rlz, 0.5),
    "realization_coefficients": lambda rlz: realization_coefficients(rlz, 3),
}


class TestRealizationChecks:
    @pytest.mark.parametrize("entry", sorted(REALIZATION_ENTRY_POINTS))
    @pytest.mark.parametrize("part", ["D", "C", "V"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_entry_raises(self, entry, part, bad):
        parts = {"D": np.zeros((1, 1)), "C": np.ones((1, 1)), "V": np.ones((1, 1))}
        parts[part] = np.array([[bad]])
        with pytest.raises(FixtureError, match=f"{part} has a non-finite entry"):
            REALIZATION_ENTRY_POINTS[entry](Realization(**parts))

    @pytest.mark.parametrize("entry", sorted(REALIZATION_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "shapes, message",
        [
            ({"D": (1, 2), "C": (1, 1), "V": (1, 1)}, "D must be square"),
            ({"D": (1, 1), "C": (1, 1), "V": (1, 2)}, "V must be square"),
            ({"D": (1, 1), "C": (2, 1), "V": (1, 1)}, "C must map"),
        ],
        ids=["D", "V", "C"],
    )
    def test_misshapen_part_raises(self, entry, shapes, message):
        parts = {part: np.ones(shape) for part, shape in shapes.items()}
        with pytest.raises(FixtureError, match=message):
            REALIZATION_ENTRY_POINTS[entry](Realization(**parts))

    @pytest.mark.parametrize("entry", sorted(REALIZATION_ENTRY_POINTS))
    def test_nan_defect_raises(self, entry):
        # finite entries whose V*V overflows to inf - inf: the isometry
        # defect is NaN, which a "> tol" test would let through
        big = 1e200
        v = np.array([[big, big], [big, -big]], dtype=complex)
        rlz = Realization(D=np.zeros((1, 1)), C=np.ones((2, 1)), V=v)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FixtureError, match="V is not an isometry"):
                REALIZATION_ENTRY_POINTS[entry](rlz)


class TestRandomRealization:
    def test_deterministic_per_seed(self):
        a = random_realization(12, 3, 6)
        b = random_realization(12, 3, 6)
        assert np.array_equal(a.D, b.D)
        assert np.array_equal(a.C, b.C)
        assert np.array_equal(a.V, b.V)

    def test_structure(self):
        rlz = random_realization(4, 2, 7)
        assert np.linalg.norm(rlz.V.conj().T @ rlz.V - np.eye(7)) <= 1e-12
        assert np.linalg.norm(rlz.D + rlz.D.conj().T) <= 1e-15

    @pytest.mark.parametrize("dims", [(0, 3), (2, 0)])
    def test_zero_dimension_raises(self, dims):
        with pytest.raises(DimensionError, match="at least 1"):
            random_realization(0, *dims)

    @pytest.mark.parametrize(
        "dims, error, message",
        [
            ((2.5, 3), TypeError, "block_dim must be an integer"),
            ((2, 3.0), TypeError, "state_dim must be an integer"),
            ((np.float64(2), 3), TypeError, "block_dim must be an integer"),
            ((0, 3), DimensionError, "at least 1"),
            ((2, -1), DimensionError, "at least 1"),
        ],
    )
    def test_refusal_draws_nothing_from_the_callers_generator(self, dims, error, message):
        # a float block dimension used to fail only at the draw of C, after
        # the draw of V had advanced the generator
        rng = np.random.default_rng(11)
        state = rng.bit_generator.state
        with pytest.raises(error, match=message):
            random_realization(rng, *dims)
        assert rng.bit_generator.state == state

    def test_numpy_integer_dimensions_count_as_their_ints(self):
        a = random_realization(12, np.int64(3), np.int32(6))
        b = random_realization(12, 3, 6)
        assert all(np.array_equal(x, y) for x, y in ((a.D, b.D), (a.C, b.C), (a.V, b.V)))

    def test_zero_c_flag(self):
        rlz = random_realization(4, 2, 7, zero_c=True)
        assert not rlz.C.any()
        seq = realization_coefficients(rlz, 3)
        h0 = (seq.coefficients[0] + seq.coefficients[0].conj().T) / 2
        assert not h0.any()
        assert np.array_equal(seq.coefficients[0], rlz.D)


def per_block_residuals(defects):
    # the residuals of ``reduce`` one defect at a time: each scaled by the
    # power of 2 that brings its largest real or imaginary part into
    # [1/2, 1), by one ``np.linalg.norm`` call each
    tops = np.abs(defects.view(float)).max(axis=(1, 2), initial=0.0)
    scales = np.ldexp(1.0, -np.maximum(np.frexp(tops)[1], -511)).tolist()
    return [float(np.linalg.norm(defect * s)) / s for defect, s in zip(defects, scales)]


def float_bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


class TestReduce:
    def test_scalar_two_two(self):
        rf = reduce(CoefficientSequence.from_scalars([2, 2]))
        assert not rf.d_imag.any()
        assert np.allclose(np.abs(rf.t0), [[np.sqrt(2)]])
        assert np.allclose(rf.t_seq.coefficients, np.ones((2, 1, 1)))
        assert max(rf.residuals) <= 1e-12

    def test_rank_deficient_compatible(self):
        c = 0.6
        m0 = np.diag([1.0, 0.0]).astype(complex)
        m1 = np.array([[c, 0.0], [0.0, 0.0]], dtype=complex)
        rf = reduce(CoefficientSequence(np.stack([m0, m1])))
        assert rf.t0.shape == (1, 2)
        assert np.allclose(np.abs(rf.t0), [[1.0, 0.0]])
        assert np.allclose(rf.t_seq.coefficients[1], [[c]])
        assert max(rf.residuals) <= 1e-12

    def test_incompatible_range_raises(self):
        m0 = np.diag([1.0, 0.0]).astype(complex)
        m1 = np.array([[0.0, 0.3], [0.0, 0.0]], dtype=complex)
        with pytest.raises(RangeCompatibilityError):
            reduce(CoefficientSequence(np.stack([m0, m1])))

    def test_skew_part_carried_separately(self):
        rf = reduce(CoefficientSequence.from_scalars([1 + 2j, 0]))
        assert np.allclose(rf.d_imag, [[2j]])
        assert np.allclose(np.abs(rf.t0), [[1.0]])
        assert np.allclose(rf.t_seq.coefficients, [[[1.0]], [[0.0]]])

    def test_zero_real_part(self):
        rf = reduce(CoefficientSequence.from_scalars([2j, 0]))
        assert rf.t0.shape == (0, 1)
        assert rf.t_seq is None
        assert rf.residuals == [0.0, 0.0]
        assert np.allclose(rf.d_imag, [[2j]])

    def test_zero_real_part_incompatible(self):
        with pytest.raises(RangeCompatibilityError):
            reduce(CoefficientSequence.from_scalars([2j, 0.5]))

    @pytest.mark.parametrize("scale", [1e150, 1e200, 1e300])
    def test_residuals_of_huge_data_are_refused_quietly(self, scale):
        # realization data past unit scale leave defects far above the
        # absolute tol; their squares would overflow, but each residual is
        # taken on its defect scaled by a power of 2, so it is finite and
        # raises no warning (the suite turns any into an error)
        seq = realization_coefficients(fixture_realization(0), 2)
        with pytest.raises(RangeCompatibilityError, match=r"residual \d\.\d{3}e\+\d+ exceeds"):
            reduce(CoefficientSequence(seq.coefficients * scale))

    def test_zero_real_part_names_the_first_residual_over_tol(self):
        # rank 0 takes the general path: the first coefficient over tol is
        # named, not the largest
        with pytest.raises(RangeCompatibilityError, match="^coefficient 2 does not factor"):
            reduce(CoefficientSequence.from_scalars([2j, 0, 0.5, 0.7]))

    @pytest.mark.parametrize("block_dim", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize(
        "exponent", [-1074, -1060, -1022, -600, -300, 0, 300, 600, 1000, 1023]
    )
    def test_stacked_residuals_are_the_per_block_norms(self, block_dim, exponent):
        # bitwise the residual of each defect by its own ``np.linalg.norm``
        # of the same power-of-2 scaling: defects near underflow (subnormal
        # entries, scaled up by at most 2^511), near overflow (scaled down),
        # blocks of mixed scale and zero blocks
        rng = np.random.default_rng([block_dim, exponent + 1074])
        shape = (7, block_dim, block_dim)
        defects = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        defects *= np.ldexp(1.0, exponent) / 4
        defects[2] = 0
        defects[4] *= np.ldexp(1.0, -exponent // 2)
        defects[5, 0, 0] = np.ldexp(1.0, min(exponent, 1023))
        defects[6, -1, -1] = complex(0, np.ldexp(0.75, exponent))
        assert float_bits(series_module._residuals(defects)) == float_bits(
            per_block_residuals(defects)
        )

    @pytest.mark.parametrize(
        "values",
        [[2j, 0], [2j, 0, 0.5, 0.7], [1e-300j, 1e-310, 1e300]],
        ids=["zero", "incompatible", "extreme"],
    )
    def test_rank_zero_residuals_are_the_coefficient_norms(self, values):
        # rank 0: each defect is its coefficient (Re M_0 for j = 0)
        seq = CoefficientSequence.from_scalars(values)
        targets = np.concatenate([np.zeros((1, 1, 1)), seq.coefficients[1:]])
        rf = reduce(seq, tol=1e300)
        assert rf.t0.shape == (0, 1)
        assert float_bits(rf.residuals) == float_bits(per_block_residuals(targets))

    @pytest.mark.parametrize("seed", range(5))
    def test_fixture_residuals_are_the_per_block_norms(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        seq = realization_coefficients(random_realization(seed, d, int(rng.integers(1, 12))), 40)
        rf = reduce(seq)
        targets = np.concatenate([_hermitian(seq.coefficients[0])[None], seq.coefficients[1:]])
        defects = targets - rf.t0.conj().T @ rf.t_seq.coefficients @ rf.t0
        assert float_bits(rf.residuals) == float_bits(per_block_residuals(defects))

    @pytest.mark.parametrize("seed", range(5))
    def test_fixture_reduction_quality(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        seq = realization_coefficients(random_realization(seed, d, int(rng.integers(1, 9))), 6)
        rf = reduce(seq)
        r = rf.t0.shape[0]
        assert np.linalg.norm(rf.t_seq.coefficients[0] - np.eye(r)) <= 1e-10
        assert max(rf.residuals) <= 1e-8
        assert psd_report(assemble(rf.t_seq).dense, 1e-8).is_psd
        h0 = (seq.coefficients[0] + seq.coefficients[0].conj().T) / 2
        assert np.linalg.norm(rf.t0.conj().T @ rf.t0 - h0) <= 1e-10


class TestGramIsometries:
    def test_rank_one_all_ones(self):
        gf = gram_isometries(CoefficientSequence.from_scalars([1, 1]))
        assert np.allclose(np.abs(gf.factor), np.ones((1, 2)))
        v0, v1 = gf.isometries
        assert np.allclose(v0, v1, atol=1e-10)

    def test_identity_data_orthogonal_isometries(self):
        gf = gram_isometries(CoefficientSequence.from_scalars([1, 0]))
        v0, v1 = gf.isometries
        assert np.allclose(v0.conj().T @ v1, [[0.0]], atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_fixture_isometry_defects(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        seq = realization_coefficients(random_realization(seed, d, int(rng.integers(2, 8))), 4)
        gf = gram_isometries(seq)
        for v in gf.isometries:
            r = v.shape[1]
            assert np.linalg.norm(v.conj().T @ v - np.eye(r)) <= 1e-8

    @pytest.mark.parametrize("values", [[0, 0, 0], [1j, 0]])
    def test_vanishing_hermitian_part_gives_empty_factors(self, values):
        gf = gram_isometries(CoefficientSequence.from_scalars(values))
        assert gf.factor.shape == (0, len(values))
        assert all(v.shape == (0, 0) for v in gf.isometries)

    @staticmethod
    def perturb_w(monkeypatch, factor):
        # W = outer inner of the shared minimal factor, multiplied by
        # ``factor`` before the isometries are chained through it
        def perturbed(*args):
            rows, r, outer, inner = toeplitz._minimal_factor(*args)
            return rows, r, outer * factor, inner

        monkeypatch.setattr(series_module, "_minimal_factor", perturbed)

    def test_unreproduced_coefficient_raises(self, monkeypatch):
        # a W turned by the phase e^{0.1 i} turns V_1 = W V_0 with it, and
        # T0* V_0* V_1 T0 misses M_1 by about 0.1 ||M_1||, far beyond
        # tol ||T_N||_F.  Both scale with the data, so the data raise at
        # every power of 2; unturned, they pass
        m0 = np.array([[0.163, -0.171], [-0.171, 0.589]])
        m1 = np.array([[-0.012, -0.164], [0.181, -0.042]])
        for power in (-40, -10, 0, 10):
            seq = CoefficientSequence(np.array([m0, m1]) * 2.0**power)
            gram_isometries(seq)
            with monkeypatch.context() as patch:
                self.perturb_w(patch, np.exp(0.1j))
                with pytest.raises(
                    FactorizationMismatchError, match="coefficient 1 is not reproduced"
                ):
                    gram_isometries(seq)

    def test_unreproduced_toeplitz_matrix_raises(self, monkeypatch):
        # T_1 = I for the data (1, 0): V_0 and V_1 = W V_0 are orthogonal, so
        # a W doubled still reproduces M_1 = 0, but the Gram's last diagonal
        # block comes back as 4, not 1
        self.perturb_w(monkeypatch, 2.0)
        with pytest.raises(FactorizationMismatchError, match="Gram reconstruction"):
            gram_isometries(CoefficientSequence.from_scalars([1, 0]))

    def test_one_svd_for_w_and_one_for_v0(self, count_dense_calls, monkeypatch):
        # the isometries come from W and V_0 alone, whatever N: two SVDs,
        # one eigh of T_N (shared with ``extend``) and one of Re M_0, its
        # only ``minimal_factorization``
        factored = []

        def recording(a, *args, **kwargs):
            factored.append(np.shape(a))
            return minimal_factorization(a, *args, **kwargs)

        monkeypatch.setattr(series_module, "minimal_factorization", recording)
        seq = realization_coefficients(random_realization(4, 2, 7), 6)
        calls = count_dense_calls()
        gf = gram_isometries(seq)
        assert len(gf.isometries) == 7
        assert calls["svd"] == [gf.factor.shape[0]] * 2
        assert calls["eigh"] == [14, 2]
        assert factored == [(2, 2)]

    @pytest.mark.parametrize("seed", range(3))
    def test_rank_deficient_base_factor(self, seed):
        # state dimension 1 below block dimension 3: Re M_0 has rank 1, and
        # each column block of F is V_j T0 for an isometry V_j
        seq = realization_coefficients(random_realization(seed, 3, 1), 4)
        gf = gram_isometries(seq)
        t0 = minimal_factorization(hermitian_split(seq.coefficients[0])[0], tol_rank=1e-8).T
        assert t0.shape[0] == 1
        for v, block in zip(gf.isometries, gf.blocks):
            assert np.linalg.norm(v.conj().T @ v - np.eye(1)) <= 1e-14
            assert np.linalg.norm(v @ t0 - block) <= 1e-10 * np.linalg.norm(block)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda tol: kernel_gram(scalar_series([1, 0.5]), [0.1, 0.2j], tol=tol),
        lambda tol: reduce(CoefficientSequence.from_scalars([1, 2]), tol=tol),
        lambda tol: gram_isometries(CoefficientSequence.from_scalars([1, 2]), tol=tol),
        lambda tol: realization_coefficients(fixture_realization(0), 2, tol=tol),
        lambda tol: eval_realization(fixture_realization(0), 0.5, tol=tol),
    ],
    ids=[
        "kernel_gram",
        "reduce",
        "gram_isometries",
        "realization_coefficients",
        "eval_realization",
    ],
)
def test_non_finite_tolerance_raises(call, tol):
    # each would otherwise give a verdict no tolerance backs: a NaN passes
    # or blames whatever it guards, an infinite one admits anything
    with pytest.raises(ValueError, match="tolerance must be finite"):
        call(tol)


class TestComposeReduced:
    def test_scalar_composition(self):
        rf = reduce(CoefficientSequence.from_scalars([2, 2]))
        phi = all_ones_series(200)
        val = compose_reduced(rf, phi, 0.5)
        assert abs(complex(val[0, 0]) - 6.0) <= 1e-5

    def test_origin_reconstructs_constant_term(self):
        seq = realization_coefficients(fixture_realization(8), 4)
        rf = reduce(seq)
        phi = HerglotzSeries(rf.t_seq)
        assert np.allclose(compose_reduced(rf, phi, 0.0), seq.coefficients[0], atol=1e-10)

    def test_empty_factor_gives_constant(self):
        rf = reduce(CoefficientSequence.from_scalars([2j, 0]))
        val = compose_reduced(rf, all_ones_series(4), 0.3)
        assert np.allclose(val, [[2j]])

    def test_dimension_mismatch(self):
        seq = realization_coefficients(fixture_realization(8), 4)
        rf = reduce(seq)
        with pytest.raises(DimensionError):
            compose_reduced(rf, all_ones_series(4), 0.1)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_series_on_grid(self, seed):
        seq = realization_coefficients(fixture_realization(40 + seed), 8)
        rf = reduce(seq)
        phi_full = HerglotzSeries(seq)
        phi_red = HerglotzSeries(rf.t_seq)
        rng = np.random.default_rng(seed)
        for _ in range(6):
            z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            gap = np.linalg.norm(eval_series(phi_full, z) - compose_reduced(rf, phi_red, z))
            assert gap <= 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_kernel_factors_through_base(self, seed):
        seq = realization_coefficients(fixture_realization(50 + seed), 8)
        rf = reduce(seq)
        phi_full = HerglotzSeries(seq)
        phi_red = HerglotzSeries(rf.t_seq)
        rng = np.random.default_rng(100 + seed)
        for _ in range(4):
            z, w = 0.8 * np.exp(2j * np.pi * rng.uniform(size=2))
            lhs = kernel_value(phi_full, z, w)
            rhs = rf.t0.conj().T @ kernel_value(phi_red, z, w) @ rf.t0
            assert np.linalg.norm(lhs - rhs) <= 1e-6


def per_level_verdict(seq, tol=1e-9):
    for n in range(len(seq)):
        report = psd_report(assemble(seq.truncated(n)).dense, tol)
        if not report.is_psd:
            return f"truncation level {n} is not PSD (min eigenvalue {report.min_eigenvalue:.3e})"
    return None


class TestCertifiedSeries:
    def test_accepts_positive_data(self):
        phi = certified_series(CoefficientSequence.from_scalars([1, 0.5]))
        assert phi.certified

    def test_rejects_and_names_level(self):
        with pytest.raises(NotPsdError, match="level 1"):
            certified_series(CoefficientSequence.from_scalars([1, 2]))

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_non_finite_tolerance_raises(self, tol):
        # a NaN tolerance passes every comparison and an infinite one any
        # data, so either would certify these infeasible data
        with pytest.raises(ValueError, match="finite"):
            certified_series(CoefficientSequence.from_scalars([1, 2]), tol=tol)

    def test_psd_data_cost_one_decomposition(self, count_dense_calls):
        # one assembly of T_N and one Cholesky factorisation of it, shifted
        # in place; no eigendecomposition
        seq = realization_coefficients(fixture_realization(3), 12)
        size = len(seq) * seq.block_dim
        calls = count_dense_calls()
        assert certified_series(seq).certified
        assert calls["assemble"] == [size]
        assert calls["cholesky"] == [size]
        assert calls["eigvalsh"] == []

    @pytest.mark.parametrize("block_dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("order", [0, 8, 64])
    @pytest.mark.parametrize("rank", ["one", "deficient", "full"])
    def test_realization_data_take_the_atom_or_the_cholesky_rung(
        self, count_dense_calls, block_dim, order, rank
    ):
        # unscaled realization data, of rank 1, rank-deficient at order >= 1
        # (singular T_N, smallest eigenvalues at rounding level) and of full
        # rank; no eigenvalue check runs.  At order 64 the atom rung searches
        # the leading blocks T_1, T_2, T_4 (8 (s + 1) <= 65), one eigh each.
        # Data of rank 1 are determinate at s = 1 and the rank-deficient ones
        # (rank d + 1) at s = 2: the rung decides them with one more eigh, of
        # the r x r matrix that gives the atoms, and no Cholesky
        # factorisation, assembling nothing of T_N's size.  Full-rank data
        # pay the whole search, then one shifted Cholesky factorisation
        # decides, as it does at orders 0 and 8, below the search's cap
        size = (order + 1) * block_dim
        state_dim = {"one": 1, "deficient": block_dim + 1, "full": size + 2}[rank]
        seq = realization_coefficients(random_realization(order, block_dim, state_dim), order)
        levels = {"one": [1], "deficient": [1, 2], "full": [1, 2, 4]}[rank] if order == 64 else []
        gallop = [(s + 1) * block_dim for s in levels]
        calls = count_dense_calls()
        assert certified_series(seq).certified
        assert calls["eigvalsh"] == []
        if rank == "full" or order < 64:
            assert calls["assemble"] == gallop + [size]
            assert calls["eigh"] == gallop
            assert calls["cholesky"] == [size]
        else:
            assert calls["assemble"] == gallop
            assert calls["eigh"] == gallop + [state_dim]
            assert calls["cholesky"] == []

    def test_infeasible_data_fall_back_with_the_per_level_message(self, count_dense_calls):
        seq = CoefficientSequence.from_scalars([1, 2])
        calls = count_dense_calls()
        with pytest.raises(NotPsdError) as info:
            certified_series(seq)
        assert str(info.value) == per_level_verdict(seq)
        assert str(info.value) == "truncation level 1 is not PSD (min eigenvalue -1.000e+00)"
        # the factorisation fails, and the eigenvalue check runs on T_N
        # assembled afresh
        assert calls["assemble"] == [2, 2]
        assert calls["cholesky"] == [2]
        assert calls["eigvalsh"][0] == 2

    @pytest.mark.parametrize("seed", [0, 4])
    def test_within_the_rounding_margin_checks_level_by_level(self, count_dense_calls, seed):
        # rank-deficient data scaled by 1e6: rounding in the top level's
        # eigenvalues exceeds tol, so neither the Cholesky factorisation nor
        # interlacing alone can decide
        seq = CoefficientSequence(
            realization_coefficients(fixture_realization(seed), 8).coefficients * 1e6
        )
        size = len(seq) * seq.block_dim
        eigs = np.linalg.eigvalsh(assemble(seq).dense)
        assert 4 * len(eigs) * np.finfo(float).eps * eigs[-1] > 1e-9
        expected = per_level_verdict(seq)
        calls = count_dense_calls()
        if expected is None:
            assert certified_series(seq).certified
        else:
            with pytest.raises(NotPsdError) as info:
                certified_series(seq)
            assert str(info.value) == expected
        assert calls["cholesky"] == [size]
        assert calls["assemble"] == [size, size]
        assert len(calls["eigvalsh"]) > 1

    def test_radius_validation(self):
        with pytest.raises(DomainError):
            HerglotzSeries(CoefficientSequence.from_scalars([1.0]), declared_radius=1.5)
