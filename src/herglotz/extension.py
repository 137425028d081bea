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

For real symmetric data the reversed and unreversed partitions coincide;
for complex data only the reversed one keeps the bordered matrix positive.
The center X_c is the canonical (central) completion; choosing it at every
step solves the truncated-data interpolation problem for any horizon.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, NotPsdError, OutOfBallError, SingularBlockError
from .series import HerglotzSeries, _certified_data
from .toeplitz import CoefficientSequence, assemble, reverse_blocks

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


def _certify(seq, eps, tol, data=None):
    # the dense feasibility check of one level: PSD within tol, and the
    # eps-shifted matrix invertible at working precision.  ``data`` is the
    # level's assembled matrix and its eigenvalues (or None) from a caller
    # that has them.  Returns the assembled matrix and the largest shifted
    # eigenvalue.
    dense, eigs = data if data is not None else (assemble(seq).dense, None)
    if eigs is None:
        eigs = np.linalg.eigvalsh(dense)
    if eigs[0] < -tol:
        raise NotPsdError(
            f"coefficient data infeasible: Toeplitz min eigenvalue {eigs[0]:.6e}"
        )
    spread = eigs + eps
    if spread[0] <= spread[-1] * len(spread) * np.finfo(float).eps:
        raise SingularBlockError(
            f"eps = {eps:.3e} leaves the shifted matrix numerically singular "
            f"(spread {spread[0]:.3e} .. {spread[-1]:.3e})"
        )
    return dense, spread[-1]


def _ball_state(seq, eps, tol, data=None):
    # block-Levinson state (a, b, S, alpha^{-1}) of the level of ``seq``,
    # after the dense check of that level; also returns the largest shifted
    # eigenvalue, the scale of working precision for later levels
    if eps <= 0:
        raise ValueError(f"shift eps must be positive, got {eps}")
    d = seq.block_dim
    dense, top = _certify(seq, eps, tol, data)
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


def _ball_step(coeffs, eps, forward, left_bound, alpha_inv):
    gamma = _gamma(coeffs)
    return ExtensionStep(
        eps=eps,
        alpha=np.linalg.inv(alpha_inv),
        gamma=gamma,
        x_center=gamma @ forward,
        left_bound=left_bound,
    )


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
        If the assembled matrix has an eigenvalue below ``-tol``.
    SingularBlockError
        If ``eps`` is too small to make the shifted matrix invertible at
        working precision.
    """
    forward, _, s, alpha_inv, _ = _ball_state(seq, eps, tol)
    step = _ball_step(seq.coefficients, eps, forward, s, alpha_inv)
    return step, step.x_center.copy()


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
        If the operator norm of Gamma exceeds 1.
    """
    g = np.asarray(contraction, dtype=complex)
    if g.shape != step.x_center.shape:
        raise DimensionError(
            f"contraction shape {g.shape} does not match block shape {step.x_center.shape}"
        )
    norm = float(np.linalg.norm(g, 2))
    if norm > 1 + 1e-12:
        raise OutOfBallError(f"contraction has operator norm {norm:.6f} > 1")
    s_half = _hermitian_sqrt(step.left_bound)
    a_inv_half = _hermitian_sqrt(step.alpha, inverse=True)
    return step.x_center + s_half @ g @ a_inv_half


def _check_bound(s, top, level, size):
    # S of the data M_0 .. M_level, whose (size x size) shifted Toeplitz
    # matrix A has largest eigenvalue >= top.  S is positive definite iff A
    # is, and lambda_min(A) <= lambda_min(S), so a bound below top * size *
    # machine eps puts A below working precision too.
    eigs = np.linalg.eigvalsh(s)
    if eigs[0] <= 0:
        raise NotPsdError(
            f"extension left the ball at level {level}: the shifted Toeplitz "
            f"matrix is not positive definite (bound eigenvalue {eigs[0]:.6e})"
        )
    if eigs[0] <= top * size * np.finfo(float).eps:
        raise SingularBlockError(
            f"the shifted Toeplitz matrix at level {level} is numerically "
            f"singular (bound eigenvalue {eigs[0]:.3e})"
        )


def extend(seq, steps, eps=1e-8, contractions=None, tol=1e-9):
    """Append ``steps`` coefficients by iterated one-step extension.

    With ``contractions`` absent every step takes the central choice;
    otherwise entry k selects the ball point of ``parametrized_step``.
    The first N + 1 coefficients of the output are bitwise those of the
    input.  One block-Levinson state is built from the data and updated
    in O(n d^3) per appended coefficient (see the module docstring).

    Each produced prefix keeps its shifted Toeplitz matrix strictly
    positive, hence unshifted eigenvalues stay above ``-eps``; the
    feasibility tolerance for chained levels is widened accordingly.  The
    data are checked densely with ``tol``; every chained level through the
    bound S of its ball; and the longest chained level used for a step
    densely once more, which by interlacing covers the shorter ones.
    """
    return _extend(seq, steps, eps, contractions, tol)


def _extend(seq, steps, eps, contractions, tol, data=None):
    # ``extend``; ``data`` is the assembled data level and its eigenvalues,
    # as ``_certified_data`` returns them, so that they are not recomputed
    if steps < 0:
        raise ValueError(f"step count must be nonnegative, got {steps}")
    if contractions is not None and len(contractions) != steps:
        raise DimensionError(
            f"expected {steps} contraction parameters, got {len(contractions)}"
        )
    if steps == 0:
        return seq
    n, d = len(seq), seq.block_dim
    coeffs = np.empty((n + steps, d, d), dtype=complex)
    coeffs[:n] = seq.coefficients
    a, b, s, alpha_inv, top = _ball_state(seq, eps, tol, data)
    for k in range(steps):
        level = n + k
        if k:
            _check_bound(s, top, level - 1, level * d)
        step = _ball_step(coeffs[:level], eps, a, s, alpha_inv)
        x = step.x_center
        if contractions is not None:
            x = parametrized_step(step, contractions[k])
        coeffs[level] = x
        diff = x - step.x_center
        v = np.linalg.solve(s, diff)
        p = step.alpha @ diff.conj().T
        a, b = np.vstack([a - b @ v, v]), np.vstack([p, b - a @ p])
        s = s - diff @ p
        s = (s + s.conj().T) / 2
        alpha_inv = alpha_inv - diff.conj().T @ v
    if steps > 1:
        _certify(CoefficientSequence(coeffs[:-1]), eps, max(tol, eps))
    return CoefficientSequence(coeffs)


def solve_cf(seq, horizon, eps=1e-8, tol=1e-9, radius=0.9):
    """Solve the truncated-coefficient interpolation problem.

    Verifies feasibility with the check of ``certified_series`` (one
    eigendecomposition of the top-level Toeplitz matrix T_N, which by
    Cauchy interlacing decides every level unless its smallest eigenvalue
    lies within the rounding margin of ``-tol``, where the levels are
    checked one by one), then extends the data centrally until the
    coefficient list reaches index ``horizon``.  The extension starts from
    the same assembled T_N and eigenvalues, so T_N is assembled and
    decomposed once.  The returned series interpolates the input exactly:
    its first N + 1 coefficients are bitwise equal to ``seq``.

    Raises
    ------
    NotPsdError
        Naming the first truncation level whose Toeplitz matrix fails.
    """
    data = _certified_data(seq, tol)
    extended = _extend(seq, max(horizon - seq.order, 0), eps, None, tol, data)
    return HerglotzSeries(seq=extended, declared_radius=radius, certified=True)
