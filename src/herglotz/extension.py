"""One-step positive extension of coefficient data and its iteration.

Given M_0 .. M_N whose block Toeplitz matrix T_N is PSD, the admissible
next coefficients X = M_{N+1} form an operator ball

    S > (X - X_c) alpha (X - X_c)*.

The ball is read off the eps-shifted, coefficient-reversed Toeplitz matrix
(newest coefficient borders the corner).  With R = eps I + rev(T_{N-1})
the shifted matrix one level down, c = eps I + Re M_0,
col = (M_1; ...; M_N) and gamma = (M_N ... M_1),

    eps I + rev(T_N) = [[c, col*], [col, R]] = [[R, gamma*], [gamma, c]],

and the block-Levinson state of the level is

    a          = R^{-1} col        forward predictor, Nd x d
    b          = R^{-1} gamma*     backward predictor, Nd x d
    S          = c - gamma b       the bound of the ball
    alpha^{-1} = c - col* a        the other Schur complement of R

with center X_c = gamma a; alpha is the leading d x d block of
(eps I + rev(T_N))^{-1}.  Appending a point X of the ball borders R by one
block, and the bordered-inverse formulas give the next level's state in
O(N d^3) from D = X - X_c:

    v  = S^{-1} D,              p = alpha D*,
    a' = [a - b v; v],          b' = [p; b - a p],
    S' = S - D p,               alpha'^{-1} = alpha^{-1} - D* v.

By the Schur-complement criterion S' is positive definite exactly when the
shifted Toeplitz matrix of (M_0 .. M_N, X) is.  For the center D = 0, so S
and alpha stay fixed and a, b only gain a zero block: the central chain is
the order-N maximum-entropy (band) recursion
M_{m+1} = (M_m ... M_{m-N+1}) a for m >= N, with the a of the data.
``extend`` runs both chains as one loop over a newest-first buffer of the
coefficients, in which gamma of every level is a strided view: each step
takes the center gamma a, and a parametrized chain then moves to its ball
point and borders the state.  The central chain's one S is checked once for
all of its levels.

The longest chained level is checked densely once more.  A Cholesky
factorisation of its matrix shifted down by a rounding margin settles that
check when it succeeds, since the dense eigenvalue check (``_certify``)
then provably passes; when it fails the level is assembled afresh and the
eigenvalue check decides, so verdicts and messages are those of the
eigenvalue check.

For real symmetric data the reversed and unreversed partitions coincide;
for complex data only the reversed one keeps the bordered matrix positive.
The center X_c is the canonical (central) completion; choosing it at every
step solves the truncated-data interpolation problem for any horizon.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, NotPsdError, OutOfBallError, SingularBlockError
from .series import HerglotzSeries, certified_series
from .toeplitz import CoefficientSequence, _certified_data, assemble, reverse_blocks

__all__ = [
    "ExtensionStep",
    "central_step",
    "ball_membership",
    "parametrized_step",
    "extend",
    "solve_cf",
]


@dataclass(frozen=True, eq=False)
class ExtensionStep:
    """Intermediates of one extension step at shift ``eps``.

    ``alpha`` (d x d) is the leading block of the inverse of the
    eps-shifted, coefficient-reversed Toeplitz matrix, computed as the
    inverse of the Schur complement of its trailing Nd x Nd block;
    ``gamma`` = (M_N ... M_1) is d x Nd; ``x_center`` is the ball center
    and ``left_bound`` the Hermitian, strictly positive bound S of the
    ball inequality.
    """

    eps: float
    alpha: np.ndarray
    gamma: np.ndarray
    x_center: np.ndarray
    left_bound: np.ndarray


def _hermitian_sqrt(a, inverse=False):
    # a must be Hermitian positive definite; tiny negatives are clamped
    eigs, vecs = np.linalg.eigh((a + a.conj().T) / 2)
    eigs = np.clip(eigs, 0.0, None)
    roots = np.sqrt(eigs)
    if inverse:
        roots = 1.0 / roots
    return (vecs * roots) @ vecs.conj().T


def _certify(seq, eps, tol):
    # the dense eigenvalue check of one level: PSD within tol, and the
    # eps-shifted matrix invertible at working precision
    eigs = np.linalg.eigvalsh(assemble(seq).dense)
    if eigs[0] < -tol:
        raise NotPsdError(
            f"coefficient data infeasible: Toeplitz min eigenvalue {eigs[0]:.6e}"
        )
    _check_shift(eigs, eps)


def _check_shift(eigs, eps):
    # the eps-shifted matrix with eigenvalues ``eigs`` is invertible at
    # working precision; returns its largest eigenvalue
    spread = eigs + eps
    if spread[0] <= spread[-1] * len(spread) * np.finfo(float).eps:
        raise SingularBlockError(
            f"eps = {eps:.3e} leaves the shifted matrix numerically singular "
            f"(spread {spread[0]:.3e} .. {spread[-1]:.3e})"
        )
    return spread[-1]


def _ball_state(seq, eps, tol):
    # block-Levinson state (a, b, S, alpha^{-1}) of the level of ``seq``,
    # after the data check of ``certified_series`` and the shift check; also
    # returns the largest shifted eigenvalue, the scale of working precision
    # for later levels
    if eps <= 0:
        raise ValueError(f"shift eps must be positive, got {eps}")
    d = seq.block_dim
    dense, eigs = _certified_data(seq, tol)
    top = _check_shift(eigs, eps)
    shifted_rev = eps * np.eye(dense.shape[0]) + reverse_blocks(dense, d)
    # stable route: solve against the one-level-down shifted matrix instead
    # of recombining inverse blocks, which cancels catastrophically for tiny
    # eps
    corner, col, sub = shifted_rev[:d, :d], shifted_rev[d:, :d], shifted_rev[d:, d:]
    gamma = _gamma(seq.coefficients)
    forward = np.linalg.solve(sub, col)
    backward = np.linalg.solve(sub, gamma.conj().T)
    s = corner - gamma @ backward
    return forward, backward, (s + s.conj().T) / 2, corner - col.conj().T @ forward, top


def _gamma(coeffs):
    # (M_N ... M_1) as one d x Nd row, a contiguous copy (for d = 1 the
    # reshape alone would be a reversed-stride view of the coefficients)
    n, d = coeffs.shape[:2]
    return np.ascontiguousarray(coeffs[:0:-1].transpose(1, 0, 2).reshape(d, (n - 1) * d))


def central_step(seq, eps, tol=1e-9):
    """One central extension step: the ball data and its center.

    Parameters
    ----------
    seq : CoefficientSequence
        Data M_0 .. M_N whose assembled Toeplitz matrix is PSD within
        ``tol``.
    eps : float
        Positive shift regularizing the inversion; the bordered Toeplitz
        matrix of (M_0 .. M_N, X_c) is strictly positive after the same
        shift.
    tol : float
        Feasibility tolerance on the smallest eigenvalue of the data.

    Returns
    -------
    (ExtensionStep, numpy.ndarray)
        The step intermediates and M_{N+1} = X_c.

    Raises
    ------
    NotPsdError
        Naming the first truncation level whose Toeplitz matrix fails (the
        check of ``certified_series``).
    SingularBlockError
        If ``eps`` is too small to make the shifted matrix invertible at
        working precision.
    """
    forward, _, s, alpha_inv, _ = _ball_state(seq, eps, tol)
    gamma = _gamma(seq.coefficients)
    x = gamma @ forward
    return ExtensionStep(eps, np.linalg.inv(alpha_inv), gamma, x, s), x.copy()


def ball_membership(step, x):
    """Whether X lies inside the admissibility ball of an extension step.

    Returns ``(inside, margin)`` where margin is the smallest eigenvalue
    of ``S - (X - X_c) alpha (X - X_c)*`` and inside means margin > 0.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != step.x_center.shape:
        raise DimensionError(
            f"candidate shape {x.shape} does not match block shape {step.x_center.shape}"
        )
    diff = x - step.x_center
    gap = step.left_bound - diff @ step.alpha @ diff.conj().T
    margin = float(np.linalg.eigvalsh((gap + gap.conj().T) / 2)[0])
    return margin > 0, margin


def parametrized_step(step, contraction):
    """Point of the admissibility ball for a contraction parameter.

    Maps Gamma with ||Gamma|| <= 1 (operator norm) to
    X = X_c + S^{1/2} Gamma alpha^{-1/2}; Gamma = 0 gives the center,
    unit-norm Gamma the boundary.

    Raises
    ------
    OutOfBallError
        If Gamma has a non-finite entry or its operator norm exceeds 1.
    """
    g = np.asarray(contraction, dtype=complex)
    if g.shape != step.x_center.shape:
        raise DimensionError(
            f"contraction shape {g.shape} does not match block shape {step.x_center.shape}"
        )
    if not np.isfinite(g).all():
        raise OutOfBallError("contraction has a non-finite entry")
    norm = float(np.linalg.norm(g, 2))
    if not norm <= 1 + 1e-12:
        raise OutOfBallError(f"contraction has operator norm {norm:.6f} > 1")
    s_half = _hermitian_sqrt(step.left_bound)
    a_inv_half = _hermitian_sqrt(step.alpha, inverse=True)
    return step.x_center + s_half @ g @ a_inv_half


def _check_bound(s, top, levels, block_dim):
    # S is the bound of the data M_0 .. M_level for each level of the range
    # ``levels`` (the central chain keeps one S for all of its levels), whose
    # shifted Toeplitz matrix A has largest eigenvalue >= top.  S is positive
    # definite iff A is, and lambda_min(A) <= lambda_min(S), so a bound below
    # top * size * machine eps puts A below working precision too.  The first
    # failing level is named.
    eigs = np.linalg.eigvalsh(s)
    if eigs[0] <= 0:
        raise NotPsdError(
            f"extension left the ball at level {levels[0]}: the shifted Toeplitz "
            f"matrix is not positive definite (bound eigenvalue {eigs[0]:.6e})"
        )
    sizes = (np.array(levels) + 1) * block_dim
    singular = eigs[0] <= top * sizes * np.finfo(float).eps
    if singular.any():
        raise SingularBlockError(
            f"the shifted Toeplitz matrix at level {levels[np.argmax(singular)]} "
            f"is numerically singular (bound eigenvalue {eigs[0]:.3e})"
        )


def extend(seq, steps, eps=1e-8, contractions=None, tol=1e-9):
    """Append ``steps`` coefficients by iterated one-step extension.

    With ``contractions`` absent every step takes the central choice;
    otherwise entry k selects the ball point of ``parametrized_step``.
    The first N + 1 coefficients of the output are bitwise those of the
    input.  One block-Levinson state is built from the data.  Both chains
    run one loop over the coefficients kept newest first, so
    gamma = (M_{m-1} ... M_1) of each step is a view and the center is
    gamma a.  The central chain keeps S and alpha fixed and is the order-N
    band recursion M_m = (M_{m-1} ... M_{m-N}) a, O(N d^2) per appended
    coefficient; a parametrized chain borders the state in O(n d^3) per
    coefficient (see the module docstring).

    Each produced prefix keeps its shifted Toeplitz matrix strictly
    positive, hence unshifted eigenvalues stay above ``-eps``; the
    feasibility tolerance for chained levels is widened accordingly.  The
    data are checked with ``tol`` by the check of ``certified_series``,
    whose T_N and eigenvalues the state is built from; every chained level
    through the bound S of its ball (one d x d eigendecomposition for the
    whole central chain); and the longest chained level used for a step
    densely once more, which by interlacing covers the shorter ones.  That
    last check is one Cholesky factorisation of the level's matrix shifted
    down by a rounding margin, which when it succeeds proves that the
    eigenvalue check passes; otherwise the eigenvalue check itself decides.

    Raises
    ------
    NotPsdError
        Naming the first truncation level of the data whose Toeplitz
        matrix fails, or if a chained level leaves the ball.
    SingularBlockError
        If a shifted Toeplitz matrix is singular at working precision.
    OutOfBallError
        If a contraction has a non-finite entry or operator norm above 1.
    """
    if steps < 0:
        raise ValueError(f"step count must be nonnegative, got {steps}")
    if contractions is not None and len(contractions) != steps:
        raise DimensionError(
            f"expected {steps} contraction parameters, got {len(contractions)}"
        )
    if steps == 0:
        return seq
    n, d = len(seq), seq.block_dim
    a, b, s, alpha_inv, top = _ball_state(seq, eps, tol)
    if contractions is None and steps > 1:
        _check_bound(s, top, range(n, n + steps - 1), d)
    # the coefficients newest first in one d x (N + 1 + steps) d row: the
    # one appended next goes to position ``pos``, and gamma is the window
    # after it
    rev = np.empty((d, n + steps, d), dtype=complex)
    rev[:, steps:] = seq.coefficients[::-1].transpose(1, 0, 2)
    for k in range(steps):
        pos = steps - 1 - k
        gamma = rev[:, pos + 1 : pos + 1 + len(a) // d].reshape(d, -1)
        x = gamma @ a
        if contractions is not None:
            if k:
                _check_bound(s, top, range(n + k - 1, n + k), d)
            step = ExtensionStep(eps, np.linalg.inv(alpha_inv), gamma, x, s)
            x = parametrized_step(step, contractions[k])
            diff = x - step.x_center
            v = np.linalg.solve(s, diff)
            p = step.alpha @ diff.conj().T
            a, b = np.vstack([a - b @ v, v]), np.vstack([p, b - a @ p])
            s = s - diff @ p
            s = (s + s.conj().T) / 2
            alpha_inv = alpha_inv - diff.conj().T @ v
        rev[:, pos] = x
    coeffs = rev[:, ::-1].transpose(1, 0, 2)
    if steps > 1:
        _certify_chained(CoefficientSequence(coeffs[:-1]), eps, max(tol, eps))
    return CoefficientSequence(coeffs)


def _certify_chained(seq, eps, tol):
    # ``_certify`` of a chained level, settled by one Cholesky factorisation
    # where that provably passes.  With A the level's m x m matrix,
    # nu = ||H_0||_2 + 2 sum ||M_k||_2 >= ||A||_2, u machine eps (twice the
    # unit roundoff, which covers complex arithmetic) and
    # gamma = (m + 1) u / (1 - (m + 1) u), the factorisation of
    # A + (eps - tau - 2 gamma tr(A + eps I)) I succeeding means the matrix
    # plus a backward error of norm <= gamma ||R||_F^2 = gamma tr (Higham,
    # Accuracy and Stability, Thm 10.3) is PSD, so lambda_min(A + eps I) > tau
    # = (nu + eps) m u (1 + 2 m u) + 2 m u nu; the rest of the 2 gamma tr term
    # covers the rounding of the shift and of the comparisons below.
    # Eigenvalues computed by eigvalsh lie within 2 m u nu of the exact ones
    # (the convention of ``positivity_profile``), so ``_certify`` would find
    # lambda_min > -eps and a spread above (lambda_max + eps) m u: it passes.
    # Otherwise ``_certify`` itself decides on the level, assembled afresh
    # once the shifted copy is dropped.
    coeffs = seq.coefficients
    dense = assemble(seq).dense
    m, d = dense.shape[0], seq.block_dim
    u = np.finfo(float).eps
    norms = np.linalg.norm(coeffs[1:], 2, axis=(1, 2))
    nu = np.linalg.norm(dense[:d, :d], 2) + 2 * norms.sum()
    tau = (nu + eps) * m * u * (1 + 2 * m * u) + 2 * m * u * nu
    gamma = (m + 1) * u / (1 - (m + 1) * u)
    diagonal = dense.reshape(-1)[:: m + 1]
    diagonal += eps - tau - 2 * gamma * (diagonal.real.sum() + m * eps)
    try:
        np.linalg.cholesky(dense)
        return
    except np.linalg.LinAlgError:
        del dense
    _certify(seq, eps, tol)


def solve_cf(seq, horizon, eps=1e-8, tol=1e-9, radius=0.9):
    """Solve the truncated-coefficient interpolation problem.

    Up to ``horizon`` = N this is ``certified_series``.  Beyond it the data
    are extended centrally by ``extend`` until the coefficient list reaches
    index ``horizon``; ``extend`` certifies the data with the same check
    (one eigendecomposition of the top-level Toeplitz matrix T_N, see
    ``certified_series``) and builds its ball from the same T_N and
    eigenvalues, so T_N is assembled and decomposed once.  The central
    chain is the order-N band recursion, and its longest level is
    certified by one shifted Cholesky factorisation, so the cost is
    O(N^3 d^3 + H N d^2) plus that one factorisation.  The returned series
    interpolates the input exactly: its first N + 1 coefficients are
    bitwise equal to ``seq``.

    Raises
    ------
    NotPsdError
        Naming the first truncation level whose Toeplitz matrix fails.
    """
    if horizon <= seq.order:
        return certified_series(seq, radius, tol)
    return HerglotzSeries(extend(seq, horizon - seq.order, eps, tol=tol), radius, certified=True)
