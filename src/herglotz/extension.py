"""One-step positive extension of coefficient data and its iteration.

Given M_0 .. M_N whose block Toeplitz matrix is PSD, the admissible next
coefficients X = M_{N+1} form an operator ball

    S > (X - X_c) alpha (X - X_c)*,

read off an epsilon-shifted inverse.  The partition is taken in the
coefficient-reversed ordering of the Toeplitz matrix (newest coefficient
borders the corner): with R = (eps I + rev(M_N))^{-1} split as
[[alpha, beta*], [beta, delta]] (alpha the leading d x d block) and
gamma = (M_N ... M_1),

    X_c = -gamma beta alpha^{-1},
    S   = eps I + Re M_0 - gamma (delta - beta alpha^{-1} beta*) gamma*.

For real symmetric data the reversed and unreversed partitions coincide;
for complex data only the reversed one keeps the bordered matrix positive.
The center X_c is the canonical (central) completion; choosing it at every
step solves the truncated-data interpolation problem for any horizon.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, NotPsdError, OutOfBallError, SingularBlockError
from .series import HerglotzSeries, certified_series
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
    if eps <= 0:
        raise ValueError(f"shift eps must be positive, got {eps}")
    d = seq.block_dim
    n = len(seq)
    dense = assemble(seq).dense
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
    shifted_rev = eps * np.eye(n * d) + reverse_blocks(dense, d)
    corner = shifted_rev[:d, :d]
    h0 = (seq.coefficients[0] + seq.coefficients[0].conj().T) / 2
    if n > 1:
        gamma = np.hstack(list(seq.coefficients[:0:-1]))
        # stable route for the center and the bound: solve against the
        # one-level-down shifted matrix instead of recombining inverse
        # blocks, which cancels catastrophically for tiny eps
        sub = shifted_rev[d:, d:]
        col = shifted_rev[d:, :d]
        coupling = np.linalg.solve(sub, col)
        x_center = gamma @ coupling
        s = eps * np.eye(d) + h0 - gamma @ np.linalg.solve(sub, gamma.conj().T)
        corner = corner - col.conj().T @ coupling
    else:
        gamma = np.zeros((d, 0), dtype=complex)
        x_center = np.zeros((d, d), dtype=complex)
        s = eps * np.eye(d) + h0
    s = (s + s.conj().T) / 2
    step = ExtensionStep(
        eps=eps,
        alpha=np.linalg.inv(corner),
        gamma=gamma,
        x_center=x_center,
        left_bound=s,
    )
    return step, x_center.copy()


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


def extend(seq, steps, eps=1e-8, contractions=None, tol=1e-9):
    """Append ``steps`` coefficients by iterated one-step extension.

    With ``contractions`` absent every step takes the central choice;
    otherwise entry k selects the ball point of ``parametrized_step``.
    The first N + 1 coefficients of the output are bitwise those of the
    input.  Each produced prefix keeps its shifted Toeplitz matrix
    strictly positive, hence unshifted eigenvalues stay above ``-eps``;
    the feasibility tolerance for chained steps is widened accordingly.
    """
    if steps < 0:
        raise ValueError(f"step count must be nonnegative, got {steps}")
    if contractions is not None and len(contractions) != steps:
        raise DimensionError(
            f"expected {steps} contraction parameters, got {len(contractions)}"
        )
    current = seq
    chain_tol = max(tol, eps)
    for k in range(steps):
        step, x = central_step(current, eps, tol=tol if k == 0 else chain_tol)
        if contractions is not None:
            x = parametrized_step(step, contractions[k])
        current = CoefficientSequence(
            np.concatenate([current.coefficients, x[None, :, :]])
        )
    return current


def solve_cf(seq, horizon, eps=1e-8, tol=1e-9, radius=0.9):
    """Solve the truncated-coefficient interpolation problem.

    Verifies feasibility level by level through ``certified_series``, then
    extends the data centrally until the coefficient list reaches index
    ``horizon``.  The returned series interpolates the input exactly: its
    first N + 1 coefficients are bitwise equal to ``seq``.

    Raises
    ------
    NotPsdError
        Naming the first truncation level whose Toeplitz matrix fails.
    """
    certified_series(seq, declared_radius=radius, tol=tol)
    extra = horizon - seq.order
    extended = extend(seq, max(extra, 0), eps=eps, tol=tol)
    return HerglotzSeries(seq=extended, declared_radius=radius, certified=True)
