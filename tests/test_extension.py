import time
import tracemalloc

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


NON_FINITE_ARGUMENTS = [
    {"eps": np.nan}, {"eps": np.inf}, {"tol": np.nan}, {"tol": np.inf}, {"tol": -1.0}
]


def scalar_seq(values):
    return CoefficientSequence.from_scalars(values)


def partially_determinate():
    # M_0 = I, M_1 = diag(1, 1/2): T_1 has eigenvalues 0, 1/2, 3/2, 2, so
    # rank T_1 = 3 exceeds rank T_0 = 2 and the data are not determinate,
    # while the bound S of their ball is singular in one direction
    return CoefficientSequence(np.array([np.eye(2), np.diag([1.0, 0.5])]))


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


def scaled_chain(seed):
    # realization data of full rank or short of it by one or two, scaled by
    # 10^k, with up to 12 contractions, each zero or of norm 0.5 or 0.9
    rng = np.random.default_rng(seed)
    d, order = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    state_dim = (order + 1) * d - int(rng.choice([0, 1, 2]))
    seq = realization_coefficients(random_realization(rng, d, state_dim), order)
    seq = CoefficientSequence(seq.coefficients * 10.0 ** int(rng.integers(-6, 7)))
    size, steps = float(rng.choice([0.5, 0.9])), int(rng.integers(1, 13))
    contractions = []
    for _ in range(steps):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        contractions.append(size * rng.integers(0, 2) * g / np.linalg.norm(g, 2))
    return seq, contractions


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

    @pytest.mark.parametrize("kwargs", NON_FINITE_ARGUMENTS)
    def test_non_finite_eps_or_tol_rejected(self, kwargs):
        kwargs = {"eps": 1e-8, **kwargs}
        with pytest.raises(ValueError, match="finite"):
            central_step(scalar_seq([1, 2]), **kwargs)

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
    def test_non_finite_candidate_raises(self, value):
        # refused before any arithmetic, so no numpy warning and no nan margin
        with pytest.raises(OutOfBallError, match="candidate has a non-finite entry"):
            ball_membership(self.step, np.array([[value]]))


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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_contraction_raises(self, value):
        step, _ = central_step(scalar_seq([1, 0.5]), eps=0.1)
        with pytest.raises(OutOfBallError, match="non-finite"):
            parametrized_step(step, np.array([[value]]))
        with pytest.raises(OutOfBallError, match="non-finite"):
            extend(scalar_seq([1, 0.5]), 3, contractions=[np.array([[value]])] * 3)

    def test_ill_conditioned_chain_refuses_an_indefinite_alpha(self):
        # rank-deficient data scaled so that eps I + T_N has condition
        # ~1e13: the chain's rounding drives its output off the ball (level
        # 15 has lambda_min ~ -5.7e5) while every bound S stays positive, and
        # the certificate of the whole output refuses it as singular, without
        # blaming the data or leaking a non-finite coefficient.  The
        # zero-contraction chain on the same data extends
        seq = fixture_sequence(16, 2, 7, 3)
        seq = CoefficientSequence(seq.coefficients * 1e5)
        contractions = [0.5 * (k % 2) * np.eye(2) for k in range(12)]
        with pytest.raises(SingularBlockError) as refused:
            extend(seq, 12, eps=1e-8, contractions=contractions)
        assert "non-finite" not in str(refused.value)
        assert "infeasible" not in str(refused.value)
        zeros = [np.zeros((2, 2))] * 12
        assert extend(seq, 12, eps=1e-8, contractions=zeros).order == 15

    def test_chain_failing_its_final_check_is_not_blamed_on_the_data(self):
        # 64 steps of norm 0.5 on rank-deficient data at eps = 1e-8: the data
        # pass, every bound S passes, and the longest level's eigenvalue
        # check fails by rounding; that names the chained level, not the data
        seq = realization_coefficients(random_realization(5, 2, 17), 8)
        rng = np.random.default_rng(3)
        contractions = []
        for _ in range(64):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            contractions.append(0.5 * g / np.linalg.norm(g, 2))
        with pytest.raises(SingularBlockError, match="level 72 ") as refused:
            extend(seq, 64, eps=1e-8, contractions=contractions)
        assert "infeasible" not in str(refused.value)

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
        monkeypatch.setattr(extension, "_decomposed_data", unexpected)
        seq = scalar_seq([1, 0.5])
        assert extend(seq, 0) is seq

    @pytest.mark.parametrize("steps", [10, 100])
    def test_dense_work_independent_of_step_count(self, count_dense_calls, steps):
        # one assembly and one eigh of the data, from which both chains
        # check it and build their state, and one solve against the N d x
        # N d matrix one level down for both predictors.  The central chain then runs only d x d
        # eigvalsh: its final check is the banded certificate.  A
        # parametrized chain runs per step one eigh of S, one of alpha^{-1}
        # and one d x d solve, and no inv; its final check is one assembly
        # and one Cholesky factorisation of its whole output.  State
        # dimension 7 of rank T_2 = 6 < rank T_3 = 7: not determinate, so
        # the central chain runs
        seq = fixture_sequence(8, 2, 7, 3)
        d = seq.block_dim
        data, past = len(seq) * d, seq.order * d
        output = (len(seq) + steps) * d
        zeros = [np.zeros((d, d))] * steps
        central = {"assemble": [data], "eigh": [data], "solve": [past], "cholesky": []}
        parametrized = {
            "assemble": [data, output],
            "eigh": [data] + [d] * 2 * steps,
            "solve": [past] + [d] * steps,
            "cholesky": [output],
            "eigvalsh": [],
        }
        for contractions, expected in ((None, central), (zeros, parametrized)):
            calls = count_dense_calls()
            extend(seq, steps, eps=1e-8, contractions=contractions)
            assert {name: calls[name] for name in expected} == expected
            assert [n for n in calls["eigvalsh"] if n > d] == []
            assert calls["svd"] == calls["eig"] == calls["inv"] == []

    @pytest.mark.parametrize("seed, block_dim, state_dim, order", [(9, 2, 5, 2), (7, 3, 4, 3)])
    def test_unit_contraction_then_one_more_step_raises(self, seed, block_dim, state_dim, order):
        # a unit-norm contraction lands on the boundary of the ball, where
        # the shifted matrix of the output is singular: the certificate of
        # the whole output refuses it as the last step, and the bound S of
        # the next step refuses it before one more, naming level N + 1.  The
        # data passed their check, so neither refusal blames them
        seq = fixture_sequence(seed, block_dim, state_dim, order)
        unit = np.eye(block_dim)
        with pytest.raises(SingularBlockError):
            extend(seq, 1, eps=1e-8, contractions=[unit])
        with pytest.raises(SingularBlockError, match=f"level {order + 1} "):
            extend(seq, 2, eps=1e-8, contractions=[unit, np.zeros_like(unit)])

    @pytest.mark.parametrize(
        "seed, shape, refusal",
        [(785, (3, 2, 2), r"alpha\^\{-1\} is not positive"), (271, (3, 4, 2), "level 6 ")],
        ids=["785", "271"],
    )
    def test_parametrized_chain_returns_no_output_below_minus_eps(self, seed, shape, refusal):
        # two-step chains on 1e5-scaled rank-deficient data (d = 3; N = 2 and
        # state dimension 7, N = 4 and 13) that rounding drives off the ball,
        # to lambda_min -2.2e-6 and -4.5e-7 of the output's Toeplitz matrix
        # at eps = 1e-8.  The first is refused at its second step, whose
        # alpha^{-1} is indefinite; the second only by the certificate of the
        # whole output, as no bound S checks the bordering by its last
        # coefficient
        seq, contractions = scaled_chain(seed)
        assert (seq.block_dim, seq.order, len(contractions)) == shape
        with pytest.raises(SingularBlockError, match=refusal):
            extend(seq, len(contractions), eps=1e-8, contractions=contractions)

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
        [(31, 1, 3, 0), (32, 1, 4, 3), (33, 2, 5, 2), (34, 3, 14, 4)],
    )
    def test_central_recursion_matches_the_bordering_loop(self, seed, block_dim, state_dim, order):
        # zero contractions take the bordering loop; the central chain the
        # order-N recursion.  Both sum the same products; BLAS may order the
        # sums differently for the N-block window and the zero-padded row.
        # Every state dimension exceeds N d, so no data are determinate.
        seq = fixture_sequence(seed, block_dim, state_dim, order)
        zeros = [np.zeros((block_dim, block_dim))] * 30
        central = extend(seq, 30, eps=1e-8).coefficients
        bordered = extend(seq, 30, eps=1e-8, contractions=zeros).coefficients
        size = float(np.abs(bordered).max())
        np.testing.assert_allclose(central, bordered, rtol=0, atol=1e-13 * size)

    def test_fixed_bound_names_the_level_it_turns_singular_at(self):
        # partially determinate data at eps = 1e-14: the least eigenvalue of
        # S, ~2 eps, stays fixed while the threshold top * size * machine eps
        # grows with the level
        seq = partially_determinate()
        eps, steps = 1e-14, 60
        step, _ = central_step(seq, eps)
        bound = np.linalg.eigvalsh(step.left_bound)[0]
        top = np.linalg.eigvalsh(assemble(seq).dense)[-1] + eps
        levels = range(len(seq), len(seq) + steps)
        u, d = np.finfo(float).eps, seq.block_dim
        level = next(n for n in levels if bound <= top * (n + 1) * d * u)
        assert len(seq) < level < len(seq) + steps - 1
        with pytest.raises(SingularBlockError, match=f"level {level} ") as central:
            extend(seq, steps, eps=eps)
        with pytest.raises(SingularBlockError) as bordered:
            extend(seq, steps, eps=eps, contractions=[np.zeros((2, 2))] * steps)
        assert str(central.value) == str(bordered.value)

    @pytest.mark.parametrize("eps", [1e-12, 1e-11])
    def test_final_check_below_the_cholesky_margin_is_the_eigenvalue_check(
        self, count_dense_calls, eps
    ):
        # a 100-step chain on singular, partially determinate data with a
        # tiny shift: the whole output's margin is within the rounding
        # allowance, the Cholesky factorisation fails, and the eigenvalue
        # check decides (eps = 1e-12 raises, 1e-11 passes)
        seq, steps, tol = partially_determinate(), 100, 1e-9
        dense, eigs = extension._decomposed_data(seq, eps, tol)[:2]
        forward = extension._ball_state(seq, eps, dense, eigs)[0]
        # the band recursion M_m = (M_{m-1} ... M_{m-N}) a, one block at a time
        chain = list(seq.coefficients)
        for _ in range(steps):
            chain.append(np.hstack(chain[-1 : -len(seq) : -1]) @ forward)
        level = CoefficientSequence(np.array(chain))
        try:
            extension._certify(level, eps)
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

    def test_negative_step_count_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            extend(scalar_seq([1, 0.5]), -1)

    @pytest.mark.parametrize("kwargs", NON_FINITE_ARGUMENTS)
    @pytest.mark.parametrize("values", [[1, 2], [2, 1]])
    def test_non_finite_eps_or_tol_raises(self, kwargs, values):
        # refused as an argument, not blamed on the data: [1, 2] are
        # infeasible, [2, 1] are not determinate and fine
        with pytest.raises(ValueError, match="finite"):
            extend(scalar_seq(values), 5, **kwargs)

    def test_contraction_of_the_wrong_shape_raises(self):
        seq = scalar_seq([1, 0.5])
        step, _ = central_step(seq, eps=0.1)
        with pytest.raises(DimensionError, match="contraction shape"):
            parametrized_step(step, np.zeros((2, 2)))
        with pytest.raises(DimensionError, match="contraction shape"):
            extend(seq, 2, contractions=[np.zeros((1, 1)), np.zeros((2, 2))])

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

    @pytest.mark.parametrize("horizon", [0, 1, 5])
    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_non_finite_tolerance_raises(self, horizon, tol):
        with pytest.raises(ValueError, match="finite"):
            solve_cf(scalar_seq([1, 2]), horizon, tol=tol)

    def test_negative_horizon_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            solve_cf(scalar_seq([1, 0.5]), -3)

    def test_data_level_assembled_and_decomposed_once(self, count_dense_calls):
        # the feasibility check, the rank and the minimal factor share one
        # assembly and one eigh of the data level, and no eigvalsh runs
        seq = fixture_sequence(8, 2, 5, 6)
        size = len(seq) * seq.block_dim
        calls = count_dense_calls()
        phi = solve_cf(seq, horizon=seq.order + 10)
        assert phi.seq.order == seq.order + 10
        assert calls["assemble"] == [size]
        assert calls["eigh"].count(size) == 1
        assert calls["eigvalsh"] == []

    @pytest.mark.parametrize("seed", range(3))
    def test_bench_shaped_central_solve_checks_no_dense_level(self, count_dense_calls, seed):
        # rank-deficient order-8 data to horizon 128, not determinate (state
        # dimension 17: rank T_7 = 16 < rank T_8 = 17 < 18): the data level
        # is assembled and decomposed once, by one eigh, and the banded
        # certificate settles the chained level with d x d algebra
        seq = fixture_sequence(40 + seed, 2, 17, 8)
        data = len(seq) * seq.block_dim
        calls = count_dense_calls()
        phi = solve_cf(seq, horizon=128)
        assert phi.seq.order == 128 and phi.certified
        assert calls["assemble"] == [data]
        assert calls["eigh"] == [data]
        assert [n for n in calls["eigvalsh"] if n > seq.block_dim] == []
        assert calls["cholesky"] == calls["svd"] == []

    @pytest.mark.parametrize("state_dim, eps", [(18, 1e-8), (17, 1e-3), (5, 1e-8)])
    def test_long_horizon_builds_no_level_sized_array(
        self, count_dense_calls, monkeypatch, state_dim, eps
    ):
        # H = 2000 on full-rank data; on rank-deficient, not determinate data
        # with a shift well above the level's rounding margin; and on
        # determinate data (state dimension 5 <= N d = 16), extended from
        # their minimal factor: a (Hd)^2 complex array alone would be 256 MB,
        # so the dense fallback fails before building one
        def dense_fallback(*args):
            raise AssertionError("the banded certificate left the level to the dense check")

        monkeypatch.setattr(extension, "_certify_chained", dense_fallback)
        seq = fixture_sequence(50, 2, state_dim, 8)
        horizon, data = 2000, len(seq) * seq.block_dim
        calls = count_dense_calls()
        tracemalloc.start()
        start = time.perf_counter()
        try:
            phi = solve_cf(seq, horizon=horizon, eps=eps)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert phi.seq.order == horizon
        assert calls["assemble"] == [data] and calls["cholesky"] == []
        assert calls["eigh"].count(data) == 1
        assert [n for n in calls["eigvalsh"] if n > seq.block_dim] == []
        assert max(n for sizes in calls.values() for n in sizes) == data
        assert peak < 16 * (horizon * seq.block_dim) ** 2 / 64
        assert elapsed < 1.0

    def test_short_horizon_returns_input(self):
        seq = scalar_seq([1, 0.5, 0.25])
        phi = solve_cf(seq, horizon=1)
        assert np.array_equal(phi.seq.coefficients, seq.coefficients)


class TestDeterminateExtension:
    @pytest.mark.parametrize("eps", [1e-8, 1e-14, 1e-300])
    def test_singular_scalar_data_extend_exactly(self, eps):
        # [1, 1] is determinate (rank T_1 = rank T_0 = 1): its extension is
        # the constant sequence, with no shift to bias it and nothing
        # inverted at the shift, so no eps is too small
        ext = extend(scalar_seq([1, 1]), 60, eps=eps)
        np.testing.assert_allclose(ext.coefficients[:, 0, 0], np.ones(62), rtol=0, atol=1e-14)

    def test_partially_determinate_data_take_the_chain(self):
        seq = partially_determinate()
        data = extension._decomposed_data(seq, 1e-8, 1e-9)
        assert extension._determinate_extension(seq, *data, 5) is None

    def test_long_horizon_is_the_realization(self):
        # order-8 data of a 5-dimensional realization to horizon 2000, which
        # the shifted chain could only settle with a dense 4000 x 4000 check
        rlz = random_realization(0, 2, 5)
        seq = realization_coefficients(rlz, 8)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            phi = solve_cf(seq, 2000)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert phi.certified and phi.seq.order == 2000
        assert elapsed < 1.0
        assert peak < 4 * 2**20
        expected = realization_coefficients(rlz, 2000).coefficients
        size = float(np.abs(expected).max())
        np.testing.assert_allclose(phi.seq.coefficients, expected, rtol=0, atol=1e-10 * size)

    @pytest.mark.parametrize("block_dim, state_dim", [(1, 3), (2, 5), (3, 20)])
    def test_work_is_one_decomposition_pair_of_the_data(
        self, count_dense_calls, block_dim, state_dim
    ):
        # to H = 2000: one eigh of T_N (the data check, the rank and the
        # minimal factor) and one of the r x r Hermitian part of the rotated
        # unitary, with the r x r SVD between them (r = state dimension), no
        # eigvalsh, and nothing larger assembled or decomposed
        seq = fixture_sequence(60, block_dim, state_dim, 8)
        data = len(seq) * block_dim
        calls = count_dense_calls()
        phi = solve_cf(seq, horizon=2000)
        assert phi.seq.order == 2000 and phi.certified
        assert calls["assemble"] == [data]
        assert calls["eigh"] == [data, state_dim] and calls["svd"] == [state_dim]
        assert calls["eigvalsh"] == calls["eig"] == calls["cholesky"] == []
