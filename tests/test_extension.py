import numpy as np
import pytest

from herglotz import extension
from herglotz import (
    CoefficientSequence,
    DimensionError,
    NotPsdError,
    OutOfBallError,
    SingularBlockError,
    assemble,
    ball_membership,
    central_step,
    eval_series,
    extend,
    kernel_gram,
    parametrized_step,
    random_realization,
    realization_coefficients,
    reverse_blocks,
    schur_split,
    solve_cf,
)


def scalar_seq(values):
    return CoefficientSequence.from_scalars(values)


def fixture_sequence(seed, block_dim, state_dim, order):
    rlz = random_realization(seed, block_dim, state_dim)
    return realization_coefficients(rlz, order)


def reversed_inverse_partition(seq, eps):
    # alpha, beta, delta of R = (eps I + rev(T_N))^{-1} with alpha the
    # leading d x d block; block reversal commutes with inversion
    d = seq.block_dim
    dense = assemble(seq).dense
    rev = reverse_blocks(np.linalg.inv(eps * np.eye(dense.shape[0]) + dense), d)
    return rev[:d, :d], rev[d:, :d], rev[d:, d:]


def min_prefix_eigs(seq):
    return [
        np.linalg.eigvalsh(assemble(seq.truncated(n)).dense)[0] for n in range(len(seq))
    ]


class TestCentralStep:
    @pytest.mark.parametrize("eps", [1.0, 1e-3, 1e-8])
    def test_all_ones_closed_form(self, eps):
        _, m_next = central_step(scalar_seq([1, 1]), eps)
        assert abs(complex(m_next[0, 0]) - 1 / (1 + eps)) <= 1e-12

    def test_no_coupling_gives_zero_center(self):
        step, m_next = central_step(scalar_seq([1]), eps=0.5)
        assert np.allclose(m_next, 0.0)
        assert step.gamma.shape == (1, 0)

    @pytest.mark.parametrize("eps", [1e-2, 1e-5, 1e-8])
    def test_geometric_closed_form(self, eps):
        _, m_next = central_step(scalar_seq([1, 0.5]), eps)
        assert abs(complex(m_next[0, 0]) - 1 / (4 * (1 + eps))) <= 1e-12

    def test_eps_monotone_convergence(self):
        # |M_2(eps) - 1/4| <= eps for the (1, 1/2) family
        for eps in [1e-3, 1e-4, 1e-6]:
            _, m_next = central_step(scalar_seq([1, 0.5]), eps)
            assert abs(complex(m_next[0, 0]) - 0.25) <= eps

    def test_infeasible_data_raises(self):
        with pytest.raises(NotPsdError):
            central_step(scalar_seq([1, 2]), eps=1e-8)

    def test_vanishing_eps_rejected(self):
        with pytest.raises(ValueError):
            central_step(scalar_seq([1, 0.5]), eps=0.0)

    def test_eps_below_working_precision_raises(self):
        # singular data plus a shift smaller than round-off cannot be inverted
        with pytest.raises(SingularBlockError):
            central_step(scalar_seq([1, 1]), eps=1e-300)

    def test_partition_matches_reversed_inverse(self):
        # alpha is the leading block of R, and the bound is the paper's
        # S = eps I + Re M_0 - gamma (delta - beta alpha^{-1} beta*) gamma*
        seq = fixture_sequence(21, 2, 5, 3)
        eps = 1e-4
        step, _ = central_step(seq, eps)
        alpha, beta, delta = reversed_inverse_partition(seq, eps)
        assert np.allclose(step.alpha, alpha, atol=1e-10)
        m0 = seq.coefficients[0]
        inner = delta - beta @ np.linalg.inv(alpha) @ beta.conj().T
        s = eps * np.eye(2) + (m0 + m0.conj().T) / 2 - step.gamma @ inner @ step.gamma.conj().T
        assert np.allclose(step.left_bound, s, atol=1e-10)

    def test_center_matches_inverse_block_formula(self):
        # x_center = -gamma beta alpha^{-1} with the reversed-layout blocks
        seq = fixture_sequence(25, 2, 6, 3)
        step, _ = central_step(seq, eps=1e-4)
        alpha, beta, _ = reversed_inverse_partition(seq, 1e-4)
        direct = -step.gamma @ beta @ np.linalg.inv(alpha)
        assert np.allclose(step.x_center, direct, atol=1e-10)

    def test_delta_complement_is_one_level_down_inverse(self):
        # delta - beta alpha^{-1} beta* equals the inverse of the shifted
        # reversed Toeplitz matrix one truncation level down
        seq = fixture_sequence(22, 2, 6, 3)
        eps = 1e-3
        alpha, beta, delta = reversed_inverse_partition(seq, eps)
        delta_x = delta - beta @ np.linalg.inv(alpha) @ beta.conj().T
        down = assemble(seq.truncated(seq.order - 1)).dense
        down_rev = reverse_blocks(down, 2)
        expected = np.linalg.inv(eps * np.eye(down.shape[0]) + down_rev)
        assert np.allclose(delta_x, expected, atol=1e-10)

    def test_left_bound_is_corner_schur_complement(self):
        seq = fixture_sequence(23, 2, 4, 2)
        eps = 1e-2
        step, _ = central_step(seq, eps)
        dense = assemble(seq).dense
        shifted_rev = eps * np.eye(dense.shape[0]) + reverse_blocks(dense, 2)
        split = schur_split(shifted_rev, dense.shape[0] - 2)
        assert np.allclose(step.left_bound, split.schur_complement, atol=1e-10)

    def test_left_bound_strictly_positive(self):
        seq = fixture_sequence(24, 3, 6, 4)
        step, _ = central_step(seq, eps=1e-8)
        assert np.linalg.eigvalsh(step.left_bound)[0] > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_bordered_matrix_stays_strictly_positive(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        seq = fixture_sequence(400 + seed, d, int(rng.integers(d, 8)), int(rng.integers(1, 4)))
        eps = 1e-8
        _, m_next = central_step(seq, eps)
        bordered = CoefficientSequence(np.concatenate([seq.coefficients, m_next[None]]))
        dense = assemble(bordered).dense
        assert np.linalg.eigvalsh(dense)[0] > -eps


class TestBallMembership:
    def setup_method(self):
        self.step, self.center = central_step(scalar_seq([1, 1]), eps=1.0)
        self.s = float(np.real(self.step.left_bound[0, 0]))
        self.radius = float(np.sqrt(self.s / np.real(self.step.alpha[0, 0])))

    def test_center_inside_with_full_margin(self):
        inside, margin = ball_membership(self.step, self.center)
        assert inside
        assert margin == pytest.approx(self.s)

    def test_far_point_outside(self):
        x = self.center + 10 * self.radius
        inside, _ = ball_membership(self.step, x)
        assert not inside

    def test_half_radius_margin(self):
        x = self.center + 0.5 * self.radius
        inside, margin = ball_membership(self.step, x)
        assert inside
        assert margin == pytest.approx(0.75 * self.s)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            ball_membership(self.step, np.eye(2))


class TestParametrizedStep:
    def test_zero_contraction_is_center(self):
        step, center = central_step(scalar_seq([1, 0.5]), eps=0.1)
        x = parametrized_step(step, np.zeros((1, 1)))
        assert np.allclose(x, center)

    def test_boundary_contraction(self):
        step, _ = central_step(scalar_seq([1, 1]), eps=1.0)
        x = parametrized_step(step, np.ones((1, 1)))
        _, margin = ball_membership(step, x)
        assert abs(margin) <= 1e-10

    def test_half_contraction_scalar(self):
        step, center = central_step(scalar_seq([1, 1]), eps=1.0)
        x = parametrized_step(step, 0.5 * np.ones((1, 1)))
        s = np.real(step.left_bound[0, 0])
        alpha = np.real(step.alpha[0, 0])
        assert np.allclose(x, center + 0.5 * np.sqrt(s / alpha))
        inside, _ = ball_membership(step, x)
        assert inside

    def test_overlong_contraction_raises(self):
        step, _ = central_step(scalar_seq([1, 0.5]), eps=0.1)
        with pytest.raises(OutOfBallError):
            parametrized_step(step, 1.5 * np.ones((1, 1)))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_contraction_stays_inside(self, seed):
        rng = np.random.default_rng(500 + seed)
        seq = fixture_sequence(seed, 2, 5, 2)
        step, _ = central_step(seq, eps=1e-4)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        g = 0.9 * g / np.linalg.norm(g, 2)
        x = parametrized_step(step, g)
        _, margin = ball_membership(step, x)
        assert margin >= -1e-12


class TestExtend:
    def test_geometric_family(self):
        ext = extend(scalar_seq([1, 0.5]), 3, eps=1e-8)
        got = np.real(ext.coefficients[:, 0, 0])
        assert np.allclose(got, [1, 0.5, 0.25, 0.125, 0.0625], atol=1e-6)

    def test_identity_data(self):
        ext = extend(scalar_seq([1]), 5, eps=1e-8)
        got = np.real(ext.coefficients[:, 0, 0])
        assert np.allclose(got, [1, 0, 0, 0, 0, 0], atol=1e-7)

    def test_zero_steps_unchanged(self, monkeypatch):
        # no step, no state: solve with horizon = order pays nothing
        def unexpected(*args):
            raise AssertionError("ball state built for zero steps")

        monkeypatch.setattr(extension, "_ball_state", unexpected)
        seq = scalar_seq([1, 0.5])
        assert extend(seq, 0) is seq

    @pytest.mark.parametrize("steps", [10, 100])
    def test_dense_work_independent_of_step_count(self, count_dense_calls, steps):
        # one assembly and one full eigvalsh for the data, one assembly and
        # one Cholesky factorisation for the final check; per step only
        # d x d linear algebra
        seq = fixture_sequence(8, 2, 5, 3)
        calls = count_dense_calls()
        extend(seq, steps, eps=1e-8)
        assert len(calls["assemble"]) == 2
        assert [n for n in calls["eigvalsh"] if n > seq.block_dim] == [len(seq) * seq.block_dim]
        assert len(calls["cholesky"]) == 1

    @pytest.mark.parametrize("seed, block_dim, state_dim, order", [(9, 2, 5, 2), (7, 3, 4, 3)])
    def test_unit_contraction_then_one_more_step_raises(self, seed, block_dim, state_dim, order):
        # a unit-norm contraction lands on the boundary of the ball: that
        # step is allowed, but the shifted data it leaves is singular
        seq = fixture_sequence(seed, block_dim, state_dim, order)
        unit = np.eye(block_dim)
        extend(seq, 1, eps=1e-8, contractions=[unit])
        with pytest.raises(NotPsdError):
            extend(seq, 2, eps=1e-8, contractions=[unit, np.zeros_like(unit)])

    def test_prefix_bitwise_preserved(self):
        seq = fixture_sequence(9, 2, 5, 2)
        ext = extend(seq, 4, eps=1e-8)
        assert np.array_equal(ext.coefficients[:3], seq.coefficients)

    def test_zero_contractions_match_central(self):
        seq = scalar_seq([1, 0.5])
        central = extend(seq, 3, eps=1e-6)
        zeros = [np.zeros((1, 1))] * 3
        parametrized = extend(seq, 3, eps=1e-6, contractions=zeros)
        assert np.array_equal(central.coefficients, parametrized.coefficients)

    @pytest.mark.parametrize(
        "seed, block_dim, state_dim, order",
        [(31, 1, 3, 0), (32, 1, 4, 3), (33, 2, 5, 2), (34, 3, 4, 4)],
    )
    def test_central_recursion_matches_the_bordering_loop(self, seed, block_dim, state_dim, order):
        # zero contractions take the bordering loop; the central chain the
        # order-N recursion.  Both sum the same products; BLAS may order the
        # sums differently for the N-block window and the zero-padded row.
        seq = fixture_sequence(seed, block_dim, state_dim, order)
        zeros = [np.zeros((block_dim, block_dim))] * 30
        central = extend(seq, 30, eps=1e-8).coefficients
        bordered = extend(seq, 30, eps=1e-8, contractions=zeros).coefficients
        size = float(np.abs(bordered).max())
        np.testing.assert_allclose(central, bordered, rtol=0, atol=1e-13 * size)

    def test_fixed_bound_names_the_level_it_turns_singular_at(self):
        # [1, 1] at eps = 1e-14: S ~ 2 eps stays fixed while the threshold
        # top * size * machine eps grows with the level
        seq = scalar_seq([1, 1])
        eps, steps = 1e-14, 60
        step, _ = central_step(seq, eps)
        bound = np.linalg.eigvalsh(step.left_bound)[0]
        top = np.linalg.eigvalsh(assemble(seq).dense)[-1] + eps
        levels = range(len(seq), len(seq) + steps)
        level = next(n for n in levels if bound <= top * (n + 1) * np.finfo(float).eps)
        assert len(seq) < level < len(seq) + steps - 1
        with pytest.raises(SingularBlockError, match=f"level {level} ") as central:
            extend(seq, steps, eps=eps)
        with pytest.raises(SingularBlockError) as bordered:
            extend(seq, steps, eps=eps, contractions=[np.zeros((1, 1))] * steps)
        assert str(central.value) == str(bordered.value)

    @pytest.mark.parametrize("eps", [1e-12, 1e-11])
    def test_final_check_below_the_cholesky_margin_is_the_eigenvalue_check(
        self, count_dense_calls, eps
    ):
        # a 100-step chain on singular data with a tiny shift: the longest
        # level's margin is within the rounding allowance, the Cholesky
        # factorisation fails, and the eigenvalue check decides (eps = 1e-12
        # raises, 1e-11 passes)
        seq, steps, tol = scalar_seq([1, 1]), 100, 1e-9
        forward = extension._ball_state(seq, eps, tol)[0]
        # the band recursion M_m = (M_{m-1} ... M_{m-N}) a, one block at a time
        chain = list(seq.coefficients)
        for _ in range(steps):
            chain.append(np.hstack(chain[-1 : -len(seq) : -1]) @ forward)
        level = CoefficientSequence(np.array(chain[:-1]))
        try:
            extension._certify(level, eps, max(tol, eps))
            expected = None
        except (NotPsdError, SingularBlockError) as err:
            expected = (type(err), str(err))
        calls = count_dense_calls()
        try:
            extend(seq, steps, eps=eps, tol=tol)
            got = None
        except (NotPsdError, SingularBlockError) as err:
            got = (type(err), str(err))
        assert got == expected
        size = len(level) * level.block_dim
        assert calls["cholesky"] == [size]
        assert calls["eigvalsh"].count(size) == 1

    def test_contraction_count_mismatch(self):
        with pytest.raises(DimensionError):
            extend(scalar_seq([1]), 2, contractions=[np.zeros((1, 1))])

    @pytest.mark.parametrize("seed", range(5))
    def test_closure_random_complex_seeds(self, seed):
        rng = np.random.default_rng(600 + seed)
        d = int(rng.integers(1, 3))
        seq = fixture_sequence(700 + seed, d, int(rng.integers(2, 8)), int(rng.integers(1, 4)))
        ext = extend(seq, 10, eps=1e-8)
        assert min(min_prefix_eigs(ext)) >= -1e-8


class TestSolveCf:
    def test_geometric_interpolant(self):
        phi = solve_cf(scalar_seq([1, 0.5]), horizon=64)
        assert phi.certified
        assert abs(complex(eval_series(phi, 0.5)[0, 0]) - 5 / 3) <= 1e-6

    def test_constant_function(self):
        phi = solve_cf(scalar_seq([1]), horizon=16)
        for z in [0.0, 0.3, -0.2 + 0.4j]:
            assert np.allclose(eval_series(phi, z), [[1.0]], atol=1e-7)

    def test_interpolation_exactness_bitwise(self):
        seq = fixture_sequence(31, 2, 6, 2)
        phi = solve_cf(seq, horizon=32)
        assert phi.seq.order == 32
        assert np.array_equal(phi.seq.coefficients[:3], seq.coefficients)
        # kernel Gram stays PSD; points kept at |z| <= 0.5 so the order-32
        # truncation tail is negligible against the eigenvalue bound
        rng = np.random.default_rng(0)
        pts = 0.5 * np.sqrt(rng.uniform(0, 1, 16)) * np.exp(2j * np.pi * rng.uniform(0, 1, 16))
        rep = kernel_gram(phi, pts)
        assert rep.min_eigenvalue >= -1e-6

    def test_infeasible_names_first_failing_level(self):
        with pytest.raises(NotPsdError, match="level 1"):
            solve_cf(scalar_seq([1, 2]), horizon=8)

    def test_data_level_assembled_and_decomposed_once(self, count_dense_calls):
        # the feasibility check and the extension's ball state share one
        # assembly and one eigvalsh of the data level
        seq = fixture_sequence(8, 2, 5, 6)
        size = len(seq) * seq.block_dim
        calls = count_dense_calls()
        phi = solve_cf(seq, horizon=seq.order + 10)
        assert phi.seq.order == seq.order + 10
        assert calls["assemble"].count(size) == 1
        assert calls["eigvalsh"].count(size) == 1

    def test_short_horizon_returns_input(self):
        seq = scalar_seq([1, 0.5, 0.25])
        phi = solve_cf(seq, horizon=1)
        assert np.array_equal(phi.seq.coefficients, seq.coefficients)
