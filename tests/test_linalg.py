import numpy as np
import pytest

from herglotz import (
    DimensionError,
    FactorizationMismatchError,
    NotHermitianError,
    NotPsdError,
    SingularBlockError,
    connecting_isometry,
    hermitian_split,
    minimal_factorization,
    psd_report,
    schur_split,
)


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_psd(rng, n, rank=None):
    g = random_complex(rng, rank or n, n)
    return g.conj().T @ g


class TestHermitianSplit:
    def test_hermitian_input(self):
        h, s = hermitian_split([[1.0]])
        assert np.allclose(h, [[1.0]]) and np.allclose(s, [[0.0]])

    def test_skew_input(self):
        h, s = hermitian_split([[1j]])
        assert np.allclose(h, [[0.0]]) and np.allclose(s, [[1j]])

    def test_mixed_scalar(self):
        h, s = hermitian_split([[1 + 2j]])
        assert np.allclose(h, [[1.0]]) and np.allclose(s, [[2j]])

    def test_parts_have_exact_symmetry(self):
        rng = np.random.default_rng(11)
        m = random_complex(rng, 6, 6)
        h, s = hermitian_split(m)
        assert np.array_equal(h, h.conj().T)
        assert np.array_equal(s, -s.conj().T)
        assert np.allclose(h + s, m, rtol=0, atol=1e-15)

    def test_resplit_of_hermitian_part_is_exact(self):
        rng = np.random.default_rng(12)
        h, _ = hermitian_split(random_complex(rng, 5, 5))
        h2, s2 = hermitian_split(h)
        assert np.array_equal(h2, h)
        assert not s2.any()

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            hermitian_split(np.ones((2, 3)))


class TestPsdReport:
    def test_identity(self):
        rep = psd_report(np.eye(2), 1e-10)
        assert rep.min_eigenvalue == pytest.approx(1.0)
        assert rep.is_psd and rep.is_strictly_positive
        assert rep.tolerance_used == 1e-10

    def test_indefinite(self):
        rep = psd_report([[1, 2], [2, 1]], 1e-10)
        assert rep.min_eigenvalue == pytest.approx(-1.0)
        assert not rep.is_psd

    def test_rank_one_boundary(self):
        rep = psd_report([[1, 1], [1, 1]], 1e-10)
        assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-10)
        assert rep.is_psd and not rep.is_strictly_positive

    def test_non_hermitian_raises(self):
        with pytest.raises(NotHermitianError):
            psd_report([[0, 1], [0, 0]], 1e-10)

    @pytest.mark.parametrize("matrix", [[[np.inf]], [[np.nan]], [[1, np.nan], [np.nan, 1]]])
    def test_non_finite_raises(self, matrix):
        # the asymmetry of a non-finite matrix is NaN, which no tolerance
        # admits: no verdict and no factor comes from its eigenvalues
        with pytest.raises(NotHermitianError, match="asymmetry nan"):
            psd_report(matrix)
        with pytest.raises(NotHermitianError, match="asymmetry nan"):
            minimal_factorization(matrix)


class TestMinimalFactorization:
    def test_identity(self):
        fact = minimal_factorization(np.eye(2))
        assert fact.rank == 2
        assert np.allclose(fact.T.conj().T @ fact.T, np.eye(2))

    def test_projection(self):
        fact = minimal_factorization([[1, 0], [0, 0]])
        assert fact.rank == 1
        assert np.allclose(np.abs(fact.T), [[1, 0]])

    def test_reconstruction(self):
        a = np.array([[2, 1], [1, 1]], dtype=complex)
        fact = minimal_factorization(a)
        assert fact.rank == 2
        assert np.linalg.norm(a - fact.T.conj().T @ fact.T) <= 1e-12 * np.linalg.norm(a)
        assert fact.residual <= 1e-12

    def test_empty_matrix_has_an_empty_factor(self):
        fact = minimal_factorization(np.zeros((0, 0)))
        assert fact.T.shape == (0, 0) and fact.rank == 0 and fact.residual == 0.0

    def test_not_psd_raises_with_eigenvalue(self):
        with pytest.raises(NotPsdError, match="-1"):
            minimal_factorization([[1, 2], [2, 1]])

    @pytest.mark.parametrize("seed", range(8))
    def test_random_psd_minimality(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        rank = int(rng.integers(1, n + 1))
        a = random_psd(rng, n, rank)
        fact = minimal_factorization(a)
        assert np.linalg.norm(a - fact.T.conj().T @ fact.T) <= 1e-10 * np.linalg.norm(a)
        smallest = np.linalg.svd(fact.T, compute_uv=False)[-1]
        assert smallest >= 1e-8 * np.linalg.norm(fact.T, 2)
        assert fact.rank == rank


class TestConnectingIsometry:
    def test_scalar_phase(self):
        v = connecting_isometry(np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]]))
        assert np.allclose(v, [[-1.0]])

    def test_identity(self):
        v = connecting_isometry(np.eye(2), np.eye(2))
        assert np.allclose(v, np.eye(2))

    def test_unitary_target(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(random_complex(rng, 3, 3))
        v = connecting_isometry(np.eye(3), q)
        assert np.allclose(v, q)

    def test_mismatch_raises(self):
        with pytest.raises(FactorizationMismatchError):
            connecting_isometry(np.eye(2), 2 * np.eye(2))

    def test_factors_of_different_source_dimensions_raise(self):
        with pytest.raises(DimensionError, match="source dimension"):
            connecting_isometry(np.eye(2), np.eye(3))

    def test_target_with_fewer_rows_than_the_rank_raises(self):
        # no isometry maps a rank-2 range into one row, however loose tol is
        with pytest.raises(FactorizationMismatchError, match="fewer"):
            connecting_isometry(np.eye(2), [[1.0, 0.0]], tol=10)

    @pytest.mark.parametrize("seed", range(6))
    def test_two_minimal_factorizations_connect_unitarily(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 9))
        a = random_psd(rng, n) + 0.1 * np.eye(n)
        t = minimal_factorization(a)
        t_prime = np.linalg.cholesky(a).conj().T
        v = connecting_isometry(t, t_prime)
        r = t.rank
        assert np.linalg.norm(v.conj().T @ v - np.eye(r)) <= 1e-8
        assert np.linalg.norm(v @ v.conj().T - np.eye(r)) <= 1e-8
        assert np.linalg.norm(v @ t.T - t_prime) <= 1e-8 * np.linalg.norm(t_prime)

    @staticmethod
    def noisy_ill_conditioned_pair():
        # T with a tiny singular value and T' = Q T plus 1e-10 noise
        rng = np.random.default_rng(0)
        t = np.diag([1.0, 1e-7])
        q, _ = np.linalg.qr(random_complex(rng, 2, 2))
        return t, q, q @ t + 1e-10 * random_complex(rng, 2, 2)

    def test_round_off_is_snapped_back_to_an_isometry(self):
        # the tiny singular value amplifies the noise in T' into a
        # least-squares map T' T^+ that is 1e-3 off an isometry; the
        # Procrustes solution, the polar factor of T' T*, is an isometry to
        # rounding and within the noise of Q
        t, q, t_prime = self.noisy_ill_conditioned_pair()
        raw = t_prime @ np.linalg.pinv(t)
        assert np.linalg.norm(raw.conj().T @ raw - np.eye(2)) > 1e-4
        v = connecting_isometry(t, t_prime)
        assert np.linalg.norm(v.conj().T @ v - np.eye(2)) <= 1e-14
        assert np.linalg.norm(v - q) <= 1e-2

    def test_noisy_factor_is_matched_within_tol(self):
        # the polar factor of T' T^+ misses T' by 5e-4 here; the Procrustes
        # solution minimises ||V T - T'|| and meets the noise level
        t, _, t_prime = self.noisy_ill_conditioned_pair()
        v = connecting_isometry(t, t_prime, tol=1e-8)
        assert np.linalg.norm(v @ t - t_prime) <= 1e-8

    def test_non_minimal_target_gives_isometry_only(self):
        rng = np.random.default_rng(42)
        a = random_psd(rng, 3)
        t = minimal_factorization(a)
        pad, _ = np.linalg.qr(random_complex(rng, 5, 3))
        t_prime = pad @ t.T
        v = connecting_isometry(t, t_prime)
        assert v.shape == (5, 3)
        assert np.linalg.norm(v.conj().T @ v - np.eye(3)) <= 1e-8
        assert np.linalg.norm(v @ v.conj().T - np.eye(5)) > 1e-3


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize(
    "call",
    [
        # a NaN tolerance would blame the matrix for its asymmetry, and an
        # infinite one would pass it
        lambda tol: psd_report([[-1.0]], tol),
        lambda tol: minimal_factorization([[-1.0]], tol_rank=tol),
        # factors that disagree: a NaN tolerance would connect them
        lambda tol: connecting_isometry(np.eye(2), 2 * np.eye(2), tol=tol),
    ],
    ids=["psd_report", "minimal_factorization", "connecting_isometry"],
)
def test_non_finite_tolerance_raises(call, tol):
    with pytest.raises(ValueError, match="tolerance must be finite"):
        call(tol)


class TestSchurSplit:
    def test_two_by_two(self):
        split = schur_split(np.array([[1.0, 1.0], [1.0, 2.0]]), 1)
        assert np.allclose(split.schur_complement, [[1.0]])

    def test_half(self):
        split = schur_split(np.array([[2.0, 1.0], [1.0, 1.0]]), 1)
        assert np.allclose(split.schur_complement, [[0.5]])

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_identity_any_split(self, k):
        split = schur_split(np.eye(4), k)
        assert np.allclose(split.schur_complement, np.eye(4 - k))
        assert split.leading_cond == pytest.approx(1.0)

    def test_middle_factor_is_block_diagonal(self):
        rng = np.random.default_rng(3)
        g = random_complex(rng, 5, 5) + 5 * np.eye(5)
        split = schur_split(g, 2)
        assert not split.middle_factor[:2, 2:].any()
        assert not split.middle_factor[2:, :2].any()
        assert np.array_equal(split.middle_factor[:2, :2], split.a_block)

    @pytest.mark.parametrize("seed", range(10))
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, n))
        g = random_complex(rng, n, n) + n * np.eye(n)
        split = schur_split(g, k)
        recon = split.lower_factor @ split.middle_factor @ split.upper_factor
        assert np.linalg.norm(g - recon) <= 1e-10 * np.linalg.norm(g) * split.leading_cond

    def test_singular_block_raises(self):
        g = np.array([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularBlockError, match="singular value"):
            schur_split(g, 1)

    def test_bad_split_index_raises(self):
        with pytest.raises(DimensionError):
            schur_split(np.eye(3), 0)
