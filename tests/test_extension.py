import time
import tracemalloc
import warnings

import numpy as np
import pytest

from herglotz import extension, toeplitz
from herglotz import (
    CoefficientSequence,
    DimensionError,
    NotPsdError,
    OutOfBallError,
    SingularBlockError,
    assemble,
    ball_membership,
    central_step,
    certified_series,
    eval_series,
    extend,
    gram_isometries,
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


def cholesky_seconds(size):
    # the wall time of one Cholesky factorisation of a size x size complex
    # positive definite matrix, the unit of this module's time guards.  Timed
    # beside the call that a guard bounds, it slows as that call does when the
    # host is loaded, so the guard trips on dense work of the wrong order, not
    # on a busy host
    rng = np.random.default_rng(0)
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    a = a + a.conj().T + 4 * size * np.eye(size)
    start = time.perf_counter()
    np.linalg.cholesky(a)
    return time.perf_counter() - start


def min_prefix_eigs(seq):
    return [
        np.linalg.eigvalsh(assemble(seq.truncated(n)).dense)[0] for n in range(len(seq))
    ]


class TestCentralStep:
    @pytest.mark.parametrize("eps", [1.0, 1e-3, 1e-8])
    def test_all_ones_closed_form(self, eps):
        _, m_next = central_step(scalar_seq([1, 1]), eps)
        assert abs(complex(m_next[0, 0]) - 1 / (1 + eps)) <= 1e-12

    def test_step_owns_its_gamma(self):
        # not a view pinning the shifted (N + 1)d x (N + 1)d matrix
        step, _ = central_step(fixture_sequence(21, 2, 5, 3), 1e-4)
        assert step.gamma.base is None
        assert step.gamma.shape == (2, 6)

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
        # zero steps check the data as any step count does, but build no state
        def unexpected(*args):
            raise AssertionError("ball state built for zero steps")

        monkeypatch.setattr(extension, "_ball_state", unexpected)
        seq = scalar_seq([1, 0.5])
        assert extend(seq, 0) is seq

    @pytest.mark.parametrize("steps", [0, 1])
    def test_infeasible_data_raise_for_every_step_count(self, steps):
        with pytest.raises(NotPsdError, match="truncation level 1 is not PSD"):
            extend(scalar_seq([1, 2]), steps)

    @pytest.mark.parametrize("steps", [10, 100])
    def test_dense_work_independent_of_step_count(self, count_dense_calls, steps):
        # one assembly and one eigh of the data, from which both extensions
        # check it.  The central extension then takes the 7 x 7 SVD of its
        # minimal factor (state dimension 7 of rank T_2 = 6 < rank T_3 = 7:
        # not determinate) and solves and decomposes nothing else.  A
        # parametrized chain builds its state with one solve against the
        # N d x N d matrix one level down for both predictors, and runs per
        # step one eigh of S, one of alpha^{-1} and no solve or inv; its final
        # check is one assembly and one Cholesky factorisation of its whole
        # output
        seq = fixture_sequence(8, 2, 7, 3)
        d = seq.block_dim
        data, past = len(seq) * d, seq.order * d
        output = (len(seq) + steps) * d
        zeros = [np.zeros((d, d))] * steps
        central = {
            "assemble": [data], "eigh": [data], "svd": [7], "solve": [], "cholesky": [],
            "eigvalsh": [],
        }
        parametrized = {
            "assemble": [data, output],
            "eigh": [data] + [d] * 2 * steps,
            "svd": [],
            "solve": [past],
            "cholesky": [output],
            "eigvalsh": [],
        }
        for contractions, expected in ((None, central), (zeros, parametrized)):
            calls = count_dense_calls()
            extend(seq, steps, eps=1e-8, contractions=contractions)
            assert {name: calls[name] for name in expected} == expected
            assert calls["eig"] == calls["inv"] == []

    @pytest.mark.parametrize("seed, block_dim, state_dim, order", [(9, 2, 5, 2), (7, 3, 4, 3)])
    def test_unit_contraction_then_one_more_step_raises(self, seed, block_dim, state_dim, order):
        # a unit-norm contraction lands on the boundary of the ball, where
        # the shifted matrix of the output is singular: lambda_min(T_L) =
        # -eps, so its computed value does not clear -eps by the rounding
        # margin and the output check refuses it as the last step, naming
        # level N + 1.  One more step divides by the bound S of that level,
        # singular too: the step refuses it where its computed least
        # eigenvalue is not positive, and otherwise the output check refuses
        # the whole output at level N + 2.  The data passed their check, so
        # no refusal blames them
        seq = fixture_sequence(seed, block_dim, state_dim, order)
        unit = np.eye(block_dim)
        refusal = f"parametrized chain at level {order + 1} is not PSD within 1.000e-08 "
        with pytest.raises(SingularBlockError, match=refusal):
            extend(seq, 1, eps=1e-8, contractions=[unit])
        refusal = f"^S is not positive definite|parametrized chain at level {order + 2} "
        with pytest.raises(SingularBlockError, match=refusal):
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

    @pytest.mark.parametrize("eps", [1e-6, 1e-3])
    def test_zero_contractions_take_the_shift_the_central_extension_does_not(self, eps):
        # the central extension of (1, 1/2) is 0.5^n at any shift; zero
        # contractions run the shifted chain through the ball centers, the
        # first of them 1/(4 (1 + eps))
        seq = scalar_seq([1, 0.5])
        central = extend(seq, 3, eps=eps).coefficients[:, 0, 0]
        assert np.abs(central - 0.5 ** np.arange(5)).max() <= 1e-15
        zeros = [np.zeros((1, 1))] * 3
        chained = extend(seq, 3, eps=eps, contractions=zeros).coefficients[:, 0, 0]
        assert abs(chained[2] - 1 / (4 * (1 + eps))) <= 1e-15

    @pytest.mark.parametrize(
        "seed, block_dim, state_dim, order",
        [(31, 1, 3, 0), (32, 1, 4, 3), (33, 2, 5, 2), (34, 3, 14, 4)],
    )
    def test_central_recursion_matches_the_bordering_loop(self, seed, block_dim, state_dim, order):
        # the central extension runs the recursion X_n = W X_{n-1} of the
        # data's partial isometry with no shift, the same bits at every eps;
        # zero contractions run the bordering loop of the eps-shifted chain
        # through its ball centers, the central extension of the shifted
        # data.  The two agree to first order in eps (the gap per unit eps,
        # relative to the largest coefficient, is at most 16.2 on these
        # fixtures).  Every state dimension exceeds N d, so no data are
        # determinate.
        seq = fixture_sequence(seed, block_dim, state_dim, order)
        zeros = [np.zeros((block_dim, block_dim))] * 30
        central = extend(seq, 30, eps=1e-8).coefficients
        size = float(np.abs(central).max())
        for eps in (1e-8, 1e-10):
            assert extend(seq, 30, eps=eps).coefficients.tobytes() == central.tobytes()
            bordered = extend(seq, 30, eps=eps, contractions=zeros).coefficients
            np.testing.assert_allclose(bordered, central, rtol=0, atol=100 * eps * size)

    @pytest.mark.parametrize("steps", [30, 60, 100])
    def test_fixed_bound_is_judged_at_the_last_level(self, steps):
        # partially determinate data at eps = 1e-14 through zero
        # contractions: the least eigenvalue of S, ~2 eps, stays fixed while
        # the working-precision threshold top (n + 1) d u of the shifted
        # matrix of level n grows past it mid-way, and rounding takes the
        # chain off the ball after that.  No step divides by zero or
        # overflows (the suite turns any warning into an error): the output
        # check judges the whole output once and names its last level, or a
        # step refuses a bound S whose least eigenvalue is not positive
        seq = partially_determinate()
        eps = 1e-14
        step, _ = central_step(seq, eps)
        bound = np.linalg.eigvalsh(step.left_bound)[0]
        top = np.linalg.eigvalsh(assemble(seq).dense)[-1] + eps
        levels = range(len(seq), len(seq) + steps)
        u, d = np.finfo(float).eps, seq.block_dim
        crossing = next(n for n in levels if bound <= top * (n + 1) * d * u)
        assert 0 < bound and len(seq) < crossing < len(seq) + steps - 1
        refusal = f"^S is not positive definite|parametrized chain at level {seq.order + steps} "
        with pytest.raises(SingularBlockError, match=refusal):
            extend(seq, steps, eps=eps, contractions=[np.zeros((2, 2))] * steps)

    @pytest.mark.parametrize("eps", [1e-12, 1e-11])
    def test_final_check_below_the_cholesky_margin_is_the_eigenvalue_check(
        self, count_dense_calls, monkeypatch, eps
    ):
        # a 100-step chain through zero contractions on singular, partially
        # determinate data with a tiny shift: the whole output's margin is
        # within the rounding allowance, the Cholesky rung fails, and one
        # eigvalsh of T_L decides on its computed lambda_min + eps >
        # (lambda_max + eps) m u, the refusal naming the chain, the level,
        # eps, that eigenvalue and the rounding margin
        seq, steps, tol = partially_determinate(), 100, 1e-9
        zeros = [np.zeros((2, 2))] * steps
        with monkeypatch.context() as patch:
            # the chain's output, its Cholesky rung forced to pass
            patch.setattr(extension, "_clearing_pivots", lambda *args: True)
            level = extend(seq, steps, eps=eps, contractions=zeros, tol=tol)
        eigs = np.linalg.eigvalsh(assemble(level).dense)
        margin = (eigs[-1] + eps) * (len(eigs) * np.finfo(float).eps)
        expected = None
        if not eigs[0] + eps > margin:
            expected = (
                f"the Toeplitz matrix of the parametrized chain at level {level.order} is not "
                f"PSD within {eps:.3e} (least eigenvalue {eigs[0]:.3e}, rounding margin "
                f"{margin:.3e})"
            )
        calls = count_dense_calls()
        try:
            got = extend(seq, steps, eps=eps, contractions=zeros, tol=tol)
            assert got.coefficients.tobytes() == level.coefficients.tobytes()
            got = None
        except SingularBlockError as err:
            got = str(err)
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

    @pytest.mark.parametrize("steps", [2.5, 2.0, np.float64(2)])
    def test_non_integral_step_count_raises_before_the_data_check(self, monkeypatch, steps):
        def unexpected(*args):
            raise AssertionError("the data were checked before the step count")

        monkeypatch.setattr(extension, "_decomposed", unexpected)
        with pytest.raises(TypeError, match="steps must be an integer"):
            extend(scalar_seq([1, 0.5]), steps)

    @pytest.mark.parametrize("contractions", [None, [np.zeros((1, 1))] * 3])
    def test_numpy_integer_step_count_counts_as_its_int(self, contractions):
        seq = scalar_seq([1, 0.5])
        expected = extend(seq, 3, contractions=contractions).coefficients.tobytes()
        got = extend(seq, np.int64(3), contractions=contractions).coefficients.tobytes()
        assert got == expected

    @pytest.mark.parametrize(
        "last, error, refusal",
        [
            (np.zeros((3, 3)), DimensionError, "contraction shape"),
            (np.array([[0.5, np.nan], [0, 0.5]]), OutOfBallError, "non-finite"),
            (np.diag([0.5, 1.5]), OutOfBallError, "operator norm 1.500000 > 1"),
        ],
        ids=["shape", "non-finite", "norm"],
    )
    def test_malformed_last_contraction_is_refused_before_the_data_check(
        self, count_dense_calls, monkeypatch, last, error, refusal
    ):
        # every contraction is checked before the data's eigh and the chain's
        # loop, so a bad last one is refused before any decomposition
        def unexpected(*args):
            raise AssertionError("the data were checked before the contractions")

        monkeypatch.setattr(extension, "_decomposed", unexpected)
        contractions = [0.5 * np.eye(2)] * 3 + [last]
        calls = count_dense_calls()
        with pytest.raises(error, match=refusal):
            extend(fixture_sequence(9, 2, 5, 2), 4, eps=1e-8, contractions=contractions)
        assert calls["eigh"] == calls["eigvalsh"] == calls["solve"] == calls["assemble"] == []

    @pytest.mark.parametrize("kwargs", NON_FINITE_ARGUMENTS)
    @pytest.mark.parametrize("values", [[1, 2], [2, 1]])
    def test_non_finite_eps_or_tol_raises(self, kwargs, values):
        # refused as an argument, not blamed on the data: [1, 2] are
        # infeasible, [2, 1] are not determinate and fine
        with pytest.raises(ValueError, match="finite"):
            extend(scalar_seq(values), 5, **kwargs)

    @pytest.mark.parametrize("kwargs", NON_FINITE_ARGUMENTS)
    def test_zero_steps_refuse_non_finite_eps_or_tol(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            extend(scalar_seq([2, 1]), 0, **kwargs)

    def test_contraction_of_the_wrong_shape_raises(self):
        seq = scalar_seq([1, 0.5])
        step, _ = central_step(seq, eps=0.1)
        with pytest.raises(DimensionError, match="contraction shape"):
            parametrized_step(step, np.zeros((2, 2)))
        with pytest.raises(DimensionError, match="contraction shape"):
            extend(seq, 2, contractions=[np.zeros((1, 1)), np.zeros((2, 2))])

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    @pytest.mark.parametrize("central", [True, False], ids=["central", "parametrized"])
    def test_data_past_the_square_root_of_the_float_range_warn_nothing(self, scale, central):
        # squared block norms of such data overflow to inf, which the bounds
        # read as no certificate; the output and its bytes are those of a
        # run with warnings ignored, and the suite turns any into an error
        seq = fixture_sequence(3, 2, 18, 8)
        seq = CoefficientSequence(seq.coefficients * scale)
        contractions = None if central else [0.5 * np.eye(2)] * 10

        def run():
            return extend(seq, 10, eps=1e-8 * scale, contractions=contractions, tol=1e-9 * scale)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            quiet = run().coefficients.tobytes()
        assert run().coefficients.tobytes() == quiet

    @pytest.mark.parametrize("values", [[1e308, 1e308], [1e308, 9e307]])
    def test_central_extension_past_the_float_range_is_refused_quietly(self, values):
        # data that pass their check but whose T_1 has its top eigenvalue
        # past the float maximum (2e308, 1.9e308): refused for the spectrum
        # before any extension is formed, with no warning (the suite turns
        # any into an error)
        with pytest.raises(SingularBlockError, match="spectrum of T_1 passes the float maximum"):
            extend(scalar_seq(values), 4)

    @pytest.mark.parametrize(
        "run",
        [
            lambda seq: extend(seq, 4, contractions=[np.zeros((1, 1))] * 4),
            lambda seq: central_step(seq, 1e-8),
            gram_isometries,
        ],
        ids=["chain", "central_step", "gram_isometries"],
    )
    def test_overflowed_spectrum_is_refused_by_every_entry_point(self, run):
        # (1e308, 1e308) pass the data check, but T_1 has eigenvalues 0 and
        # inf: the chain, the step and the factor of ``gram_isometries``
        # refuse the spectrum as the central extension does (above), not the
        # data level's threshold
        with pytest.raises(SingularBlockError, match=r"^the spectrum of T_1 passes the float"):
            run(scalar_seq([1e308, 1e308]))

    def test_chain_threshold_near_the_float_maximum_does_not_overflow(self):
        # top m u is formed as top (m u): T_1 of (1e308, 5e307) has top
        # eigenvalue 1.5e308, whose product with m = 2 would overflow and
        # refuse the data level; the zero-contraction chain passes it.  Its
        # output 0.5^n 1e308, as the central extension's, has a Toeplitz
        # matrix whose largest eigenvalue passes the float maximum while its
        # least is 3.5e307: the output check decides it on T_5 scaled by a
        # power of 2, and both routes return it with no warning (the suite
        # turns any into an error)
        seq = scalar_seq([1e308, 5e307])
        expected = 1e308 * 0.5 ** np.arange(6)
        for contractions in ([np.zeros((1, 1))] * 4, None):
            got = extend(seq, 4, contractions=contractions).coefficients[:, 0, 0]
            assert got[:2].tolist() == [1e308, 5e307]
            np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)

    def test_hermitian_parts_near_the_float_maximum_stay_finite(self):
        # S = (x + x*) / 2 of M_0 = 1e308 is formed halved first: the bound of
        # the ball stays 1e308, and the zero-contraction chain extends by
        # zeros, with no warning (the suite turns any into an error)
        seq = scalar_seq([1e308])
        step, center = central_step(seq, 1e-8)
        assert step.left_bound.tolist() == [[1e308]] and center.tolist() == [[0]]
        zeros = [np.zeros((1, 1))] * 3
        got = extend(seq, 3, contractions=zeros).coefficients[:, 0, 0]
        assert got.tolist() == [1e308, 0, 0, 0]
        assert ball_membership(step, [[0]]) == (True, 1e308)

    def test_non_finite_central_output_is_refused_as_the_extension(self, monkeypatch):
        # an output coefficient past the float maximum (forced here) is
        # refused by the output check, as the central extension's, before any
        # sequence is built, whose own check would blame the data with
        # NotPsdError
        coeffs = np.full((4, 1, 1), np.inf, dtype=complex)
        monkeypatch.setattr(extension, "_central_extension", lambda *args: (coeffs, np.inf))
        message = r"central extension at level 3 is not PSD within 1\.000e-08 \(least eigenv"
        with pytest.raises(SingularBlockError, match=message + "alue nan"):
            extend(scalar_seq([1, 0.5]), 2)

    @pytest.mark.parametrize(
        "eps, tol, contractions, settled",
        [
            (1e-8, 1e-9, None, True),
            (1e-300, 1e-300, None, False),
            (1e-8, 1e-9, [np.zeros((1, 1))] * 6, False),
        ],
        ids=["central-settled-by-beta", "central-past-beta", "parametrized-chain"],
    )
    def test_every_output_is_judged_once_by_the_output_check(
        self, count_dense_calls, monkeypatch, eps, tol, contractions, settled
    ):
        # whichever route, extend hands its output to _checked_output exactly
        # once and returns what it returns; beta (central only) settles the
        # first case with no T_L-sized factorisation, the others take the
        # Cholesky rung (beta 7.5e-14 against the bound 1e-300 in the second)
        judged = []

        def judge(coeffs, bound, route, beta=np.inf):
            judged.append((coeffs, bound, route, beta))
            return checked(coeffs, bound, route, beta)

        checked = extension._checked_output
        monkeypatch.setattr(extension, "_checked_output", judge)
        calls = count_dense_calls()
        out = extend(scalar_seq([1, 0.5]), 6, eps=eps, contractions=contractions, tol=tol)
        assert len(judged) == 1
        coeffs, bound, route, beta = judged[0]
        assert bound == (eps if contractions else max(tol, eps))
        assert route == ("parametrized chain" if contractions else "central extension")
        assert (beta <= bound) == settled
        assert coeffs.tobytes() == out.coefficients.tobytes()
        assert (8 in calls["cholesky"]) != settled and calls["eigvalsh"] == []

    @pytest.mark.parametrize("seed", range(5))
    def test_closure_random_complex_seeds(self, seed):
        rng = np.random.default_rng(600 + seed)
        d = int(rng.integers(1, 3))
        seq = fixture_sequence(700 + seed, d, int(rng.integers(2, 8)), int(rng.integers(1, 4)))
        ext = extend(seq, 10, eps=1e-8)
        assert min(min_prefix_eigs(ext)) >= -1e-8


class TestSolveCf:
    def test_geometric_interpolant(self):
        # the central extension of (1, 1/2) is 0.5^n, taken with no shift
        phi = solve_cf(scalar_seq([1, 0.5]), horizon=64)
        assert phi.certified
        assert np.abs(phi.seq.coefficients[:, 0, 0] - 0.5 ** np.arange(65)).max() <= 1e-15
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

    @pytest.mark.parametrize("horizon", [0, 1, 2, 9])
    @pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -1e-8])
    def test_bad_shift_raises_at_every_horizon(self, count_dense_calls, horizon, eps):
        # below, at and past the order N = 1 of the data alike, before the
        # data are checked; up to N the shift used to go unread
        calls = count_dense_calls()
        with pytest.raises(ValueError, match="shift eps must be positive and finite"):
            solve_cf(scalar_seq([1, 0.5]), horizon, eps=eps)
        assert all(sizes == [] for sizes in calls.values())

    @pytest.mark.parametrize("horizon", [1.0, 3.5, np.float64(4)])
    def test_non_integral_horizon_raises_before_any_arithmetic(self, count_dense_calls, horizon):
        # below, at and past the order of the data alike
        calls = count_dense_calls()
        with pytest.raises(TypeError, match="horizon must be an integer"):
            solve_cf(scalar_seq([1, 0.5]), horizon)
        assert all(sizes == [] for sizes in calls.values())

    @pytest.mark.parametrize("horizon", [1, 4])
    def test_numpy_integer_horizon_counts_as_its_int(self, horizon):
        seq = scalar_seq([1, 0.5])
        expected = solve_cf(seq, horizon).seq.coefficients.tobytes()
        assert solve_cf(seq, np.int32(horizon)).seq.coefficients.tobytes() == expected

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

    @pytest.mark.parametrize("seed", [1, 4])
    def test_data_on_the_rounding_margin_are_assembled_once(self, count_dense_calls, seed):
        # rank-deficient data scaled by 1e6, whose least eigenvalue does not
        # clear -tol by the interlacing margin: the eigenvalue check decides
        # them (seed 1 fails it, seed 4 passes) from the spectrum of the T_N
        # that the data's eigh took, with the verdict of ``certified_series``
        # and no second assembly of T_N
        seq = CoefficientSequence(fixture_sequence(seed, 2, 5, 8).coefficients * 1e6)
        size = len(seq) * seq.block_dim
        try:
            certified_series(seq)
            expected = None
        except NotPsdError as err:
            expected = str(err)
        calls = count_dense_calls()
        try:
            extend(seq, 4)
            got = None
        except NotPsdError as err:
            got = str(err)
        except SingularBlockError:
            got = None
        assert got == expected and (seed == 1) == (got is not None)
        assert calls["assemble"].count(size) == 1
        assert calls["eigh"][0] == calls["eigvalsh"][0] == size

    @pytest.mark.parametrize("seed", range(3))
    def test_bench_shaped_central_solve_checks_no_dense_level(self, count_dense_calls, seed):
        # rank-deficient order-8 data to horizon 128, not determinate (state
        # dimension 17: rank T_7 = 16 < rank T_8 = 17 < 18): the data level
        # is assembled and decomposed once, by one eigh, the minimal factor's
        # 17 x 17 SVD gives the partial isometry, and its certificate
        # settles the output with r x r algebra
        seq = fixture_sequence(40 + seed, 2, 17, 8)
        data = len(seq) * seq.block_dim
        calls = count_dense_calls()
        phi = solve_cf(seq, horizon=128)
        assert phi.seq.order == 128 and phi.certified
        assert calls["assemble"] == [data]
        assert calls["eigh"] == [data]
        assert [n for n in calls["eigvalsh"] if n > seq.block_dim] == []
        assert calls["cholesky"] == [] and calls["svd"] == [17]

    @pytest.mark.parametrize("state_dim, eps", [(18, 1e-8), (17, 1e-3), (5, 1e-8)])
    def test_long_horizon_builds_no_level_sized_array(self, count_dense_calls, state_dim, eps):
        # H = 2000 on full-rank data, on rank-deficient data that are not
        # determinate, and on determinate data (state dimension 5 <= N d =
        # 16), each extended from its minimal factor and settled by its
        # certificate, the output check's first rung: no T_L-sized Cholesky
        # factorisation or eigvalsh runs, and a (Hd)^2 complex array alone
        # would be 256 MB.  The call takes less time than one Cholesky
        # factorisation of half T_L's size, an eighth of the dense rung it
        # must not run
        seq = fixture_sequence(50, 2, state_dim, 8)
        horizon, data = 2000, len(seq) * seq.block_dim
        unit = cholesky_seconds(horizon * seq.block_dim // 2)
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
        assert elapsed < unit

    def test_slowly_decaying_powers_are_checked_densely(self, count_dense_calls, monkeypatch):
        # the powers of W decay slowly here (spectral radius 0.9994), so the
        # certificate's beta (5.2e-8 at H = 1000) exceeds max(tol, eps): one
        # shifted Cholesky factorisation of the output's T_L settles it, no
        # eigenvalue check runs, and the output is the central extension's,
        # bit for bit.  The call takes less time than three Cholesky
        # factorisations of T_L's size, where that rung run once per step
        # would take 992.  The eps-shifted chain, which decided such data
        # before, took 2.5-3.6 s here, its output falling through to eigvalsh
        def unexpected(*args):
            raise AssertionError("the central extension built the shifted chain's state")

        monkeypatch.setattr(extension, "_ball_state", unexpected)
        seq = fixture_sequence(3, 2, 17, 8)
        dense, eigs, vecs, margin = toeplitz._decomposed(seq, 1e-9)
        factor = toeplitz._minimal_factor(eigs, vecs, margin, seq.block_dim)
        coeffs, beta = extension._central_extension(seq, dense, factor, 992)
        assert beta > 1e-8
        unit = cholesky_seconds(2002)
        calls = count_dense_calls()
        start = time.perf_counter()
        phi = solve_cf(seq, horizon=1000)
        elapsed = time.perf_counter() - start
        assert phi.seq.coefficients.tobytes() == coeffs.tobytes()
        assert calls["cholesky"] == [2002] and calls["eigvalsh"] == []
        assert elapsed < 3 * unit

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

    @pytest.mark.parametrize("eps", [1e-8, 1e-14])
    def test_partially_determinate_data_extend_exactly(self, count_dense_calls, eps):
        # diag(1, 1/2): the first direction is determinate, the second not;
        # the partial isometry of the minimal factor (rank 3, past rank 2)
        # extends both with no shift to diag(1, 0.5^n), which the shifted
        # chain at eps = 1e-14 refuses at level 22, and its certificate
        # settles the output with no output check
        calls = count_dense_calls()
        ext = extend(partially_determinate(), 60, eps=eps)
        expected = np.zeros((62, 2, 2))
        expected[:, 0, 0], expected[:, 1, 1] = 1, 0.5 ** np.arange(62)
        np.testing.assert_allclose(ext.coefficients, expected, rtol=0, atol=1e-15)
        assert calls["cholesky"] == calls["eigvalsh"] == calls["solve"] == []

    def test_long_horizon_is_the_realization(self):
        # order-8 data of a 5-dimensional realization to horizon 2000, which
        # the shifted chain could only settle with a dense 4002 x 4002 check:
        # the call takes less time than one Cholesky factorisation of half
        # that size, an eighth of that check
        rlz = random_realization(0, 2, 5)
        seq = realization_coefficients(rlz, 8)
        unit = cholesky_seconds(2001)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            phi = solve_cf(seq, 2000)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert phi.certified and phi.seq.order == 2000
        assert elapsed < unit
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
        assert calls["inv"] == calls["solve"] == []

    @pytest.mark.parametrize("block_dim, horizon", [(1, 64), (2, 64), (2, 128)])
    @pytest.mark.parametrize("seed", range(3))
    def test_bench_shaped_solve_is_three_lapack_calls(
        self, count_dense_calls, block_dim, horizon, seed
    ):
        # order-8 realization data of state dimension at most N d, the shape
        # of every ``extend`` bench op: one assembly, one eigh of T_N, the
        # Procrustes SVD and one r x r eigh, and nothing inverted or solved
        rng = np.random.default_rng(seed)
        state_dim = int(rng.integers(block_dim, 9))
        seq = fixture_sequence(70 + seed, block_dim, state_dim, 8)
        data = len(seq) * block_dim
        calls = count_dense_calls()
        phi = solve_cf(seq, horizon=horizon)
        assert phi.seq.order == horizon and phi.certified
        assert calls["assemble"] == [data]
        assert calls["eigh"] == [data, state_dim] and calls["svd"] == [state_dim]
        assert calls["eigvalsh"] == calls["inv"] == calls["solve"] == calls["cholesky"] == []
