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
``extend`` runs the central chain as that recursion, one d x Nd by Nd x d
product per coefficient, and checks its one S once for all levels;
parametrized chains border the state per coefficient.

The longest chained level is checked densely once more.  A Cholesky
factorisation of its matrix shifted down by a rounding margin settles that
check when it succeeds, since the dense eigenvalue check (``_certify``)
then provably passes; when it fails the eigenvalue check runs on the same
matrix, so verdicts and messages are those of the eigenvalue check.

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
    input.  One block-Levinson state is built from the data.  The central
    chain keeps S and alpha fixed and is the order-N band recursion
    M_m = (M_{m-1} ... M_{m-N}) a, O(N d^2) per appended coefficient; a
    parametrized chain updates the state in O(n d^3) per coefficient (see
    the module docstring).

    Each produced prefix keeps its shifted Toeplitz matrix strictly
    positive, hence unshifted eigenvalues stay above ``-eps``; the
    feasibility tolerance for chained levels is widened accordingly.  The
    data are checked densely with ``tol``; every chained level through the
    bound S of its ball (one d x d eigendecomposition for the whole central
    chain); and the longest chained level used for a step densely once
    more, which by interlacing covers the shorter ones.  That last check is
    one Cholesky factorisation of the level's matrix shifted down by a
    rounding margin, which when it succeeds proves that the eigenvalue
    check passes; otherwise the eigenvalue check itself decides.
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
    a, b, s, alpha_inv, top = _ball_state(seq, eps, tol, data)
    if contractions is None:
        if steps > 1:
            _check_bound(s, top, range(n, n + steps - 1), d)
        coeffs = _central_chain(seq.coefficients, steps, a)
    else:
        coeffs = np.empty((n + steps, d, d), dtype=complex)
        coeffs[:n] = seq.coefficients
        for k in range(steps):
            level = n + k
            if k:
                _check_bound(s, top, range(level - 1, level), d)
            step = _ball_step(coeffs[:level], eps, a, s, alpha_inv)
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
        _certify_chained(CoefficientSequence(coeffs[:-1]), eps, max(tol, eps))
    return CoefficientSequence(coeffs)


def _central_chain(data, steps, forward):
    # the data followed by ``steps`` central coefficients.  The center keeps
    # S and alpha, so M_m = (M_{m-1} ... M_{m-N}) a with the forward
    # predictor a of the data.  The coefficients are kept newest first in one
    # d x (N + 1 + steps) d row, so each window is a strided view.
    n, d = data.shape[:2]
    rev = np.empty((d, n + steps, d), dtype=complex)
    rev[:, steps:] = data[::-1].transpose(1, 0, 2)
    for pos in range(steps - 1, -1, -1):
        rev[:, pos] = rev[:, pos + 1 : pos + n].reshape(d, (n - 1) * d) @ forward
    return rev[:, ::-1].transpose(1, 0, 2)


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
    # (the convention of _certified_data), so ``_certify`` would find
    # lambda_min > -eps and a spread above (lambda_max + eps) m u: it passes.
    # Otherwise, and for non-finite coefficients, ``_certify`` itself decides
    # on the same matrix.
    dense = assemble(seq).dense
    coeffs = seq.coefficients
    if np.isfinite(coeffs).all():
        m, d = dense.shape[0], seq.block_dim
        u = np.finfo(float).eps
        norms = np.linalg.norm(coeffs[1:], 2, axis=(1, 2))
        nu = np.linalg.norm(dense[:d, :d], 2) + 2 * norms.sum()
        tau = (nu + eps) * m * u * (1 + 2 * m * u) + 2 * m * u * nu
        gamma = (m + 1) * u / (1 - (m + 1) * u)
        diagonal = dense.reshape(-1)[:: m + 1]
        saved = diagonal.copy()
        diagonal += eps - tau - 2 * gamma * (saved.real.sum() + m * eps)
        try:
            np.linalg.cholesky(dense)
            return
        except np.linalg.LinAlgError:
            diagonal[:] = saved
    _certify(seq, eps, tol, (dense, None))


def solve_cf(seq, horizon, eps=1e-8, tol=1e-9, radius=0.9):
    """Solve the truncated-coefficient interpolation problem.

    Verifies feasibility with the check of ``certified_series`` (one
    eigendecomposition of the top-level Toeplitz matrix T_N, which by
    Cauchy interlacing decides every level unless its smallest eigenvalue
    lies within the rounding margin of ``-tol``, where the levels are
    checked one by one), then extends the data centrally until the
    coefficient list reaches index ``horizon``.  The extension starts from
    the same assembled T_N and eigenvalues, so T_N is assembled and
    decomposed once; the central chain is the order-N band recursion, and
    its longest level is certified by one shifted Cholesky factorisation
    (see ``extend``), so the cost is O(N^3 d^3 + H N d^2) plus that one
    factorisation.  The returned series interpolates the input exactly:
    its first N + 1 coefficients are bitwise equal to ``seq``.

    Raises
    ------
    NotPsdError
        Naming the first truncation level whose Toeplitz matrix fails, or
        if the data has a non-finite entry.
    """
    data = _certified_data(seq, tol)
    extended = _extend(seq, max(horizon - seq.order, 0), eps, None, tol, data)
    return HerglotzSeries(seq=extended, declared_radius=radius, certified=True)
