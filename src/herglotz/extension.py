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

Routing.  Every entry point checks the data from one ``eigh`` of T_N
(``_decomposed_data``): the extension needs the spectrum (its top for the
singularity test of S, all of it for the banded certificate and the rank),
so it does not take the Cholesky certificate of ``certified_series``.
Where the smallest eigenvalue clears -tol by the interlacing margin, the
eigenvalue check behind ``certified_series`` (``toeplitz._certified_data``)
provably passes every level; otherwise that check decides on T_N
assembled afresh.  Either way verdicts and messages are those of the
eigenvalue check.  ``extend`` then takes one of two paths.

Determinate data (rank T_N = rank T_{N-1}, the rank counted above the
interlacing margin, so the routing is scale-relative) have one extension
only, and the central chain takes it exactly, with no shift
(``_determinate_extension``): the eigenpairs of T_N give a minimal factor
T_N = F* F whose block columns are F_j = U^j F_0 for a unitary U, so
M_n = sum_k g_k g_k* lambda_k^n (g_k = F_0* q_k for the eigenpairs
lambda_k, q_k of U) for every n, formed in one product over the
unit-circle powers.  The output is certified by the measure it nearly is:
the Toeplitz matrix of sum_k g_k g_k* l_k^n is exactly PSD for any
|l_k| = 1, so lambda_min(T_L) >= -beta, beta the block row sum of the
defects against it, in O(L r d^2) for rank r.  The output is returned
where beta <= max(tol, eps), so lambda_min(T_L) >= -max(tol, eps); where
beta exceeds it, and on all other data (partially determinate data,
0 < rank S < d, included), the shifted chain decides.

The shifted chain builds the state above from the same T_N and
eigenvalues, with one solve for both predictors, and runs both chains as
one loop over a newest-first buffer of the coefficients, in which gamma of
every level is a strided view: each step takes the center gamma a, and a
parametrized chain then moves to its ball point and borders the state.  A
parametrized step factors each d x d matrix once: one ``eigh`` of S gives
the eigenvalues that check its level and S^{1/2}, one ``eigh`` of the
Hermitian part of alpha^{-1} gives alpha^{-1/2} and alpha^{1/2} (and
refuses an alpha^{-1} that is not positive definite), so
D = S^{1/2} Gamma alpha^{-1/2} and p = alpha^{1/2} Gamma* S^{1/2}, and one
solve gives v.  The subtraction updates of S and alpha^{-1} are kept on
purpose: the congruence S' = S^{1/2} (I - Gamma Gamma*) S^{1/2} of exact
algebra stays positive definite whatever the rounding does to the chain,
so the check of S would see nothing.

One singularity rule (``_check_definite``) decides every level of the
shifted chain: the eps-shifted matrix of level n, of size m = (n + 1) d,
is positive definite at working precision when a tested eigenvalue clears
top m u, top its largest eigenvalue.  It tests the data level N before the
state is built, the bound S of each chained level below the last as the
chain goes (S is a Schur complement of the level's shifted matrix, so it
is positive definite exactly when that matrix is; the central chain's one
S once for all of its levels), a cheap early refusal, and the output's
own eigenvalues in its final check.  The data passed their own check, so
a refusal raises SingularBlockError naming the level: the shift is too
small for the data, or the chain's rounding (or a unit-norm contraction,
whose ball point lies on the boundary) took it off the ball.  NotPsdError
is raised for the data only.

Certificate of the shifted chain.  Its whole output M_0 .. M_L is then
certified once, by the first of three checks that passes:

1. for the central chain, the banded certificate (``_banded_bound``), in
   O(L N d^3) from the chain's own predictor a: the block unit
   upper-triangular U that applies a to the columns past N nearly
   block-diagonalises the output's shifted matrix (the inverse of a band
   extension is block banded; Dym & Gohberg, LAA 36 (1981)), and the
   residual of that structure bounds its smallest eigenvalue from below,
   for any L > N.  It passes where it clears the rounding margin tau of
   the eigenvalue check (``_chained_tau``), which grows like m u ||T_L||,
   about L^2 u for coefficients that do not decay, so on long horizons of
   singular data with a tiny shift it can be too weak;
2. one Cholesky factorisation of the output's matrix shifted down by tau
   (``_certify_chained``, with the margin's proof in
   ``toeplitz._cholesky_exceeds``, which also decides the data of
   ``certified_series``);
3. the dense eigenvalue check (``_certify``) on the output assembled
   afresh: the singularity rule on its computed eigenvalues.

The first two pass only where the third provably passes, so verdicts and
messages are those of the eigenvalue check of the output.  Whatever the
shifted chain returns has its eps-shifted matrix positive definite at
working precision, so its computed lambda_min(T_L) > -eps; ``tol`` plays
no part.  A unit-norm contraction at the last step lands on the boundary
of the ball, and the output is refused as singular.

For real symmetric data the reversed and unreversed partitions coincide;
for complex data only the reversed one keeps the bordered matrix positive.
The center X_c is the canonical (central) completion; choosing it at every
step solves the truncated-data interpolation problem for any horizon.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, OutOfBallError, SingularBlockError
from .linalg import _MACHINE_EPS, _check_tol, _hermitian, _procrustes
from .series import HerglotzSeries, _powers, certified_series
from .toeplitz import (
    CoefficientSequence,
    _certified_data,
    _cholesky_exceeds,
    _frobenius_squares,
    _interlacing_margin,
    _norm_bound,
    _rounding,
    _windows,
    assemble,
    reverse_blocks,
)

__all__ = [
    "ExtensionStep",
    "central_step",
    "ball_membership",
    "parametrized_step",
    "extend",
    "solve_cf",
]

# e^{i}, the turn of U whose Hermitian part gives U's eigenvectors
_TURN = np.exp(1j)


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


def _roots(a, name=None):
    # the eigenvalues of the Hermitian part of a and its square root, tiny
    # negatives clamped; given the ``name`` of a, also its inverse square
    # root, after refusing a Hermitian part that is not positive definite
    # (a clamped eigenvalue would give 1 / 0)
    eigs, vecs = np.linalg.eigh((a + a.conj().T) / 2)
    if name is not None and not eigs[0] > 0:
        raise SingularBlockError(
            f"{name} is not positive definite at working precision "
            f"(least eigenvalue {eigs[0]:.3e})"
        )
    roots = np.sqrt(np.clip(eigs, 0.0, None))
    scales = [roots] if name is None else [roots, 1.0 / roots]
    return (eigs, *[(vecs * r) @ vecs.conj().T for r in scales])


def _block(x, shape, name):
    # x as a complex array of the block ``shape``, refused (as ``name`` in
    # the message) before any arithmetic when it has another shape or a
    # non-finite entry
    x = np.asarray(x, dtype=complex)
    if x.shape != shape:
        raise DimensionError(f"{name} shape {x.shape} does not match block shape {shape}")
    if not np.isfinite(x).all():
        raise OutOfBallError(f"{name} has a non-finite entry")
    return x


def _contraction(contraction, shape):
    # the contraction parameter as a complex array of the block ``shape``,
    # refused by ``_block`` or when its operator norm exceeds 1
    g = _block(contraction, shape, "contraction")
    norm = float(np.linalg.norm(g, 2))
    if not norm <= 1 + 1e-12:
        raise OutOfBallError(f"contraction has operator norm {norm:.6f} > 1")
    return g


def _check_definite(least, top, levels, d, eps):
    # the one singularity rule of the shifted chain: the eps-shifted Toeplitz
    # matrix A of each level in the range ``levels`` (data M_0 .. M_level,
    # size m = (level + 1) d) is positive definite at working precision.
    # ``least`` is the smallest computed eigenvalue of A, or of the bound S
    # of the level, a Schur complement of A, so lambda_min(A) <=
    # lambda_min(S) and A is positive definite exactly when S is; ``top`` is
    # the largest eigenvalue of A, or a lower bound on it.  The first level
    # whose threshold top m u ``least`` does not clear is refused.  The data
    # passed their own check, so a refusal is the shift or the chain's
    # rounding, never the data
    sizes = (np.asarray(levels) + 1) * d
    thresholds = top * sizes * _MACHINE_EPS
    singular = least <= thresholds
    if singular.any():
        first = int(np.argmax(singular))
        raise SingularBlockError(
            f"the eps-shifted Toeplitz matrix at level {levels[first]} is not positive "
            f"definite at working precision (eps = {eps:.3e}: tested eigenvalue "
            f"{least:.3e} <= threshold {thresholds[first]:.3e})"
        )


def _certify(seq, eps):
    # the dense check of a chained level M_0 .. M_L on its eigenvalues: the
    # eps-shifted matrix positive definite at working precision, so its
    # computed lambda_min(T_L) > -eps
    eigs = np.linalg.eigvalsh(assemble(seq).dense)
    _check_definite(eigs[0] + eps, eigs[-1] + eps, range(seq.order, len(seq)), seq.block_dim, eps)


def _decomposed_data(seq, eps, tol):
    # T_N, its eigenpairs from one ``eigh`` and their interlacing margin,
    # after the shift's sign and the data check, with the verdicts and
    # messages of the eigenvalue check behind ``certified_series``
    # (``_certified_data``); every extension entry point takes its data
    # here.  ``eigh`` (zheevd with vectors) is backward stable under the
    # convention of ``positivity_profile``: each eigenvalue it computes for
    # T_N lies within 2 m u ||T_N||_2 of an exact one (m = (N + 1) d, u
    # machine eps), half the interlacing margin.  So where the computed
    # eigs[0] >= margin - tol, the exact lambda_min(T_N) >= -tol + margin / 2.
    # By interlacing every exact lambda_min(T_n) is at least that, and
    # eigvalsh computes it within margin / 2 (||T_n||_2 <= ||T_N||_2): every
    # level ``_certified_data`` decomposes passes, and its brackets fail a
    # level only after a decomposed one fails, so it would pass every level.
    # Otherwise ``_certified_data`` decides, unchanged, on T_N assembled
    # afresh.
    if not 0 < eps < np.inf:
        raise ValueError(f"shift eps must be positive and finite, got {eps}")
    _check_tol(tol)
    dense = assemble(seq).dense
    eigs, vecs = np.linalg.eigh(dense)
    margin = _interlacing_margin(eigs)
    if not eigs[0] >= margin - tol:
        _certified_data(seq, tol)
    return dense, eigs, vecs, margin


def _ball_state(seq, eps, dense, eigs):
    # block-Levinson state (a, b, S, alpha^{-1}) of the level of ``seq``,
    # with its gamma, from T_N = ``dense`` and its eigenvalues ``eigs``
    # (``_decomposed_data``), after the singularity check of its level
    d = seq.block_dim
    _check_definite(eigs[0] + eps, eigs[-1] + eps, range(seq.order, len(seq)), d, eps)
    shifted_rev = eps * np.eye(dense.shape[0]) + reverse_blocks(dense, d)
    # stable route: solve against the one-level-down shifted matrix instead
    # of recombining inverse blocks, which cancels catastrophically for tiny
    # eps; both predictors from one factorisation, copied out contiguous
    # (numpy multiplies strided column blocks with other roundings)
    corner, col, sub = shifted_rev[:d, :d], shifted_rev[d:, :d], shifted_rev[d:, d:]
    gamma = shifted_rev[-d:, :-d]
    both = np.linalg.solve(sub, np.hstack([col, gamma.conj().T]))
    forward, backward = both[:, :d].copy(), both[:, d:].copy()
    s = corner - gamma @ backward
    return forward, backward, (s + s.conj().T) / 2, corner - col.conj().T @ forward, gamma


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
    ValueError
        If ``eps`` is not positive and finite, or ``tol`` is negative,
        NaN or infinite.
    NotPsdError
        Naming the first truncation level whose Toeplitz matrix fails (the
        check of ``certified_series``).
    SingularBlockError
        If ``eps`` is too small to make the shifted matrix invertible at
        working precision.
    """
    dense, eigs = _decomposed_data(seq, eps, tol)[:2]
    forward, _, s, alpha_inv, gamma = _ball_state(seq, eps, dense, eigs)
    # the step keeps its own d x Nd gamma, not a view that pins the shifted
    # (N + 1)d x (N + 1)d matrix it was cut from
    x = gamma @ forward
    return ExtensionStep(eps, np.linalg.inv(alpha_inv), gamma.copy(), x, s), x.copy()


def ball_membership(step, x):
    """Whether X lies inside the admissibility ball of an extension step.

    Returns ``(inside, margin)`` where margin is the smallest eigenvalue
    of ``S - (X - X_c) alpha (X - X_c)*`` and inside means margin > 0.

    Raises
    ------
    DimensionError
        If X does not have the block shape of the step.
    OutOfBallError
        If X has a non-finite entry.
    """
    diff = _block(x, step.x_center.shape, "candidate") - step.x_center
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
    SingularBlockError
        If the Hermitian part of alpha is not positive definite at working
        precision.
    """
    g = _contraction(contraction, step.x_center.shape)
    return step.x_center + _roots(step.left_bound)[1] @ g @ _roots(step.alpha, "alpha")[2]


def extend(seq, steps, eps=1e-8, contractions=None, tol=1e-9):
    """Append ``steps`` coefficients by iterated one-step extension.

    With ``contractions`` absent every step takes the central choice;
    otherwise entry k selects the ball point of ``parametrized_step``.
    The first N + 1 coefficients of the output are bitwise those of the
    input.  The data are checked with ``tol``, with the verdicts and
    messages of the eigenvalue check behind ``certified_series``.  The
    whole output is certified.  On determinate data, extended exactly with
    no shift, the smallest eigenvalue of its Toeplitz matrix T_L is proven
    at least -max(tol, eps).  Otherwise the shifted chain's output has its
    eps-shifted matrix positive definite at working precision, so its
    computed lambda_min(T_L) > -eps, and ``tol`` plays no part.  The module
    docstring describes the routing and the certificates.

    Cost to horizon H = N + steps: O(N^3 d^3 + H r d^2) on determinate
    data of rank r; O(N^3 d^3 + H N d^3) for a central chain that its
    banded certificate settles; O(N^3 d^3 + H^2 d^3) for the steps of a
    parametrized chain.  The dense check of the output (one shifted
    Cholesky factorisation, and the eigenvalue check where that fails)
    adds O(H^3 d^3) to a parametrized chain and to a central chain whose
    banded bound is too weak.

    Raises
    ------
    ValueError
        If ``steps`` is negative, ``eps`` is not positive and finite, or
        ``tol`` is negative, NaN or infinite.
    DimensionError
        If the number or the block shape of the contractions is wrong.
    NotPsdError
        Naming the first truncation level of the data whose Toeplitz
        matrix fails; raised for the data only.
    SingularBlockError
        Naming the first level whose eps-shifted Toeplitz matrix is not
        positive definite at working precision: the data level (a shift too
        small for the data), a chained level whose bound S fails, or the
        whole output in its final check (the data passed theirs, so the
        failure is the chain's rounding or a unit-norm contraction); or if
        the alpha^{-1} of a parametrized step is not positive definite
        (never on the determinate path, which inverts nothing at the
        shift).
    OutOfBallError
        If a contraction has a non-finite entry or operator norm above 1.
    """
    if steps < 0:
        raise ValueError(f"step count must be nonnegative, got {steps}")
    if contractions is not None and len(contractions) != steps:
        raise DimensionError(
            f"expected {steps} contraction parameters, got {len(contractions)}"
        )
    dense, eigs, vecs, margin = _decomposed_data(seq, eps, tol)
    if steps == 0:
        return seq
    if contractions is None:
        exact = _determinate_extension(seq, dense, eigs, vecs, margin, steps)
        if exact is not None and exact[1] <= max(tol, eps):
            return CoefficientSequence(exact[0])
    n, d = len(seq), seq.block_dim
    a, b, s, alpha_inv, _ = _ball_state(seq, eps, dense, eigs)
    top = eigs[-1] + eps
    if contractions is None and steps > 1:
        _check_definite(np.linalg.eigvalsh(s)[0], top, range(n, n + steps - 1), d, eps)
    # the coefficients newest first in one d x (N + 1 + steps) d row: the
    # one appended next goes to position ``pos``, and gamma is the window
    # after it
    rev = np.empty((d, n + steps, d), dtype=complex)
    rev[:, steps:] = seq.coefficients[::-1].transpose(1, 0, 2)
    for k in range(steps):
        pos = steps - 1 - k
        gamma = rev[:, pos + 1 : pos + 1 + len(a) // d].reshape(d, -1)
        rev[:, pos] = gamma @ a
        if contractions is not None:
            # D = S^{1/2} G alpha^{-1/2} and p = alpha D* = alpha^{1/2} G* S^{1/2}
            # from one eigh of S and one of alpha^{-1}
            s_eigs, s_half = _roots(s)
            if k:
                _check_definite(s_eigs[0], top, range(n + k - 1, n + k), d, eps)
            g = _contraction(contractions[k], (d, d))
            _, a_inv_half, a_half = _roots(alpha_inv, "alpha^{-1}")
            diff = s_half @ g @ a_inv_half
            rev[:, pos] += diff
            v = np.linalg.solve(s, diff)
            p = a_half @ g.conj().T @ s_half
            a, b = np.vstack([a - b @ v, v]), np.vstack([p, b - a @ p])
            s = s - diff @ p
            s = (s + s.conj().T) / 2
            alpha_inv = alpha_inv - diff.conj().T @ v
    # the one final check, on the whole output (see the module docstring)
    out = CoefficientSequence(rev[:, ::-1].transpose(1, 0, 2))
    tau = _chained_tau(out.coefficients, eps)
    if contractions is not None or not (
        _banded_bound(out.coefficients, a, alpha_inv, eigs, margin, eps) > tau
    ):
        _certify_chained(out, eps, tau)
    return out


def _determinate_extension(seq, dense, eigs, vecs, margin, steps):
    # The central extension M_0 .. M_L (L = N + steps) of determinate data
    # from its minimal factor, with the bound beta of its measure
    # certificate; None where the data are not determinate.  ``dense``,
    # ``eigs``, ``vecs`` and ``margin`` are T_N, its computed eigenpairs and
    # their interlacing margin (``_decomposed_data``).
    #
    # Realization.  The r eigenpairs of T_N above the interlacing margin give
    # a minimal factor T_N ~ F* F, F = (F_0 ... F_N) with r x d blocks; the
    # past block P = (F_0 ... F_{N-1}) has only Nd columns, so r > Nd routes
    # to the chain at once.  For the future block Q = (F_1 ... F_N),
    # P* P = T_{N-1} = Q* Q, so (Q P*)* (Q P*) = (P P*)^2: the singular
    # values of the r x r matrix Q P* are the squares of those of P.  The
    # data are determinate when all r of them exceed the same margin
    # (rank T_{N-1} = rank T_N).  Then Q = U P for a unitary U, F_j = U^j F_0
    # and M_n = F_0* U^n F_0 for n <= N: the extension is unique and is this
    # sequence continued (the determinate Caratheodory-Toeplitz case; Dym &
    # Gohberg, LAA 36 (1981)).  U is taken as the polar factor of
    # Q P* = U (P P*), the unitary least-squares solution of Q = U P
    # (orthogonal Procrustes, ``_procrustes``), from the same SVD.  The
    # Hermitian part of e^{i} U has the eigenvectors q_k of U and eigenvalues
    # cos(arg lambda_k + 1), which tie only where two arguments sum to -2
    # (mod 2 pi): equal eigenvalues share their eigenvectors, and conjugate
    # pairs (real data) and roots of unity never tie; an accidental near-tie
    # mixes two eigenvectors, and the certificate then fails.  The
    # eigenvalues lambda_k are read back as Rayleigh quotients scaled to unit
    # modulus, so M_n = sum_k g_k g_k* lambda_k^n with g_k = F_0* q_k, for all
    # n in one product with the powers of ``series._powers``.
    #
    # Certificate.  Let l_k = lambda_k / |lambda_k| exactly and
    # Mt_n = sum_k g_k g_k* l_k^n for the stored g_k.  With x_k = (1,
    # l_k^{-1}, ..., l_k^{-L}), the Toeplitz matrix of Mt_0 .. Mt_L is
    # sum_k (x_k x_k*) (x) (g_k g_k*), exactly PSD.  T_L differs from it by
    # the block Toeplitz matrix of the defects E_0 = H_0 - Mt_0 (H_0 the
    # Hermitian part of M_0) and E_n = M_n - Mt_n, whose 2-norm is at most
    # its largest row sum of block norms, so
    #
    #     lambda_min(T_L) >= -beta,   beta = ||E_0|| + 2 sum_{n=1..L} ||E_n||.
    #
    # Bounds (u machine eps, gamma_k of ``_rounding``).  ``_powers``
    # multiplies by lambda_k once per exponent, each time with a relative
    # error theta, |theta| <= sqrt 2 gamma_2 (complex multiplication;
    # Higham, Accuracy and Stability, Lemma 3.5), which turns the phase by
    # at most asin |theta| < 1.5 u; each power is then divided by its
    # computed modulus, which turns it by less than u / 2.  p^_k1 is lambda_k
    # before that division, with the phase of l_k, so a computed power
    # p^_kn = rho e^{i phi} (p^_k0 = 1) has |phi - n arg l_k| <= f_n =
    # 1.5 u n - u (f_0 = 0), and |rho - 1| <= |rho^2 - 1| <= |s - 1| + 2 u s
    # for the computed s = fl(rho^2).  The computed product P^_n =
    # fl(sum_k W_k p^_kn), W_k = fl(g_k g_k*), errs from sum_k g_k g_k* p^_kn
    # by at most c = gamma_{r+4} times sum_k |g_k| |g_k|* rho entrywise (the
    # outer products by sqrt 2 gamma_2, the inner products of length r by
    # gamma_{r+2}), of Frobenius norm <= sum_k ||g_k||^2 (1 + |rho - 1|).
    # The rest, sum_k g_k g_k* (p^_kn - l_k^n), is sum_k g_k g_k* (rho - 1)
    # e^{i phi} plus G X G* with G = (g_1 ... g_r) and X diagonal, |X| <= f_n.
    # So ||P^_n - Mt_n||_2 <= D_n = m_n + ||G||^2 f_n, with
    # m_n = sum_k ||g_k||^2 ((1 + c)(|s - 1| + 2 u s) + c) and
    # ||G||^2 = ||Mt_0||_2 <= ||P^_0||_F + m_0.  Past N the output is P^_n,
    # so ||E_n|| <= D_n.  On the data ||E_n|| <= ||fl(M_n - P^_n)||_F (1 + u)
    # + D_n for n >= 1, and the same for n = 0 with the computed Hermitian
    # part (``assemble``'s diagonal, ``linalg._hermitian``), plus
    # u ||M_0||_F for its rounding.  Every nonnegative term is computed by at
    # most K = L + r + 2 d^2 + 16 roundings of nonnegative terms, so the sum
    # grown by 1 + gamma_K bounds beta.  Its phase term grows like
    # L^2 u ||G||^2, the rest like L r u; the path costs O(N^3 d^3 + L r d^2).
    #
    # F = W* for W, the top r eigenvectors scaled by the roots of their
    # eigenvalues, so Q P* = W_Q* W_P and F_0* = W_0 need no adjoint of F;
    # each array's squared moduli are summed in its own layout
    # (``_frobenius_squares``): the defects as block columns of T_N's first
    # block row, P^_0 and M_0 as one stack of contiguous blocks.
    n, d = len(seq), seq.block_dim
    # ``eigh`` returns the eigenvalues ascending: the top r are the last
    r = np.count_nonzero(eigs > margin)
    if r > (n - 1) * d:
        return None
    last = n - 1 + steps
    lam, g = np.empty(0, dtype=complex), np.empty((d, 0), dtype=complex)
    if r:
        rows = vecs[:, -r:] * np.sqrt(eigs[-r:])
        unitary, sv = _procrustes(rows[d:].conj().T @ rows[:-d])
        if not sv[-1] > margin:
            return None
        rotated = _TURN * unitary
        q = np.linalg.eigh(rotated + rotated.conj().T)[1]
        lam = (q.conj() * (unitary @ q)).sum(axis=0)
        lam /= np.abs(lam)
        g = rows[:d] @ q
    raw = _powers(lam, last)
    raw /= np.abs(raw)
    powers = np.concatenate((np.ones((r, 1)), raw), axis=1)
    model = (
        (g[:, None, :] * g.conj()[None, :, :]).reshape(d * d, r) @ powers
    ).reshape(d, d, last + 1).transpose(2, 0, 1)
    u, c = _MACHINE_EPS, _rounding(r + 4)
    # data near the float maximum overflow here to an infinite or NaN beta,
    # which fails the caller's test and leaves the data to the chain
    with np.errstate(over="ignore", invalid="ignore"):
        # T_N's first block row is (H_0, M_1 .. M_N) exactly (``assemble``)
        defects = np.sqrt(
            _frobenius_squares(dense[:d].reshape(d, n, d).transpose(1, 0, 2) - model[:n])
        )
        model0_norm, m0_norm = np.sqrt(
            _frobenius_squares(np.array([model[0], seq.coefficients[0]]))
        )
        squares = powers.real**2 + powers.imag**2
        moduli = (g.real**2 + g.imag**2).sum(axis=0) @ (
            (1 + c) * (np.abs(squares - 1) + 2 * u * squares) + c
        )
        # ||G||^2 times the phase bounds f_1 + ... + f_L
        phases = (model0_norm + moduli[0]) * (0.75 * u * last * (last + 1) - u * last)
        beta = (
            (defects[0] + 2 * defects[1:].sum()) * (1 + u)
            + u * m0_norm
            + moduli[0]
            + 2 * (moduli[1:].sum() + phases)
        )
    model[:n] = seq.coefficients
    return model, beta * (1 + _rounding(last + r + 2 * d * d + 16))


def _chained_tau(coeffs, eps):
    # the margin tau a chained level M_0 .. M_L must clear for ``_certify``
    # to pass (see ``_certify_chained``), with nu >= ||T_L||_2 of
    # ``_norm_bound``
    m = coeffs.shape[0] * coeffs.shape[1]
    u = _MACHINE_EPS
    nu = _norm_bound(coeffs)
    return (nu + eps) * m * u * (1 + 2 * m * u) + 2 * m * u * nu


def _banded_bound(coeffs, a, alpha_inv, eigs, margin, eps):
    # A lower bound on lambda_min(A), A = eps I + T_L the shifted matrix of a
    # central chain M_0 .. M_L (L > N), from its predictor a = (a_1; ...;
    # a_N), the alpha^{-1} of ``_ball_state``, the eigenvalues ``eigs`` of
    # the data's T_N and their interlacing margin (``_decomposed_data``);
    # -inf where the argument gives none.
    #
    # A has blocks A_lk = C_{k-l}, C_0 = H_0 + eps I, C_p = M_p, C_{-p} = C_p*.
    # U, block unit upper triangular, has columns e_k for k <= N and column
    # e_k - sum_j e_{k-j} a_j for k > N.  With, for n = 1 .. L,
    #
    #     rho_n = C_n - sum_j C_{n-j} a_j,
    #
    # the Yule-Walker residual of the computed a for n <= N and the rounding
    # of the recursion for n > N, exact algebra gives (AU)_lk = rho_{k-l} for
    # l < k, k > N, hence U* A U = [[A_N, P], [P*, Q]] with P_lk = rho_{k-l},
    # every diagonal block of Q equal to
    #
    #     G = C_0 - sum_j C_j* a_j - sum_j a_j* rho_j     (~ alpha^{-1}),
    #
    # and Q_lk = q_{k-l} = rho_{k-l} - sum_j a_j* rho_{k-l+j} for l < k.  By
    # Weyl, lambda_min(U* A U) >= min(lambda_min(A_N), lambda_min(G)) - ||E||
    # with E the off-block-diagonal part; ||E||_2 is at most its largest row
    # sum of d x d block norms, here <= sum_n ||rho_n|| + 2 sum_n ||q_n||
    # <= (3 + 2 alpha) sum_n ||rho_n||, alpha = sum_j ||a_j||_F >= ||U|| - 1.
    # When lambda_min(U* A U) >= 0, x* A x >= lambda_min(U* A U) ||x||^2 /
    # ||U||^2, so lambda_min(A) >= [that] / (1 + alpha)^2.
    #
    # Rounding.  The computed rho^_n differs from rho_n by at most
    # gamma_{Nd+4} (|C_n| + |W_n| |a|) entrywise (W_n the window
    # C_{n-1} .. C_{n-N}; inner products of length Nd, complex, the rounding
    # of C_0 and of the subtraction), so in Frobenius norm by e_n =
    # gamma_{Nd+4} (||C_n||_F + ||W_n||_F ||a||_F), and ||rho_n||_2 <=
    # ||rho^_n||_F + e_n.  alpha^{-1} = fl(C_0 - sum C_j* a_j) and G^ =
    # fl(alpha^{-1} - sum a_j* rho^_j), with its Hermitian part h, lie within
    # e_G = gamma_{Nd+4} (||C_0|| + ||col|| ||a|| + ||alpha^{-1}|| + ||a||
    # ||rho^_{1..N}|| + ||G^||) + ||a|| sum_{n<=N} e_n (Frobenius norms) of
    # G.  A computed eigenvalue of a Hermitian matrix of size m lies within
    # 2 m u ||.||_2 of an exact one (the convention of
    # ``positivity_profile``); for T_N, ||T_N||_2 <= max |eigs| / (1 - 2 m u).
    # Every nonnegative quantity here is computed by at most K = L +
    # 2 (N + 2) d^2 + 16 roundings of nonnegative terms, so it is grown by
    # 1 + gamma_K.  The final few operations on terms of total size s err by
    # less than 16 u s, which is subtracted, and the last division and the
    # rounding of tau by a relative 3 u and 4 u, which 1 - 32 u covers with
    # a relative 8 u to spare.  So a returned value above the computed
    # ``_chained_tau`` puts the exact lambda_min(A) above tau (1 + 8 u), and
    # then ``_certify`` passes: its computed lambda_min + eps clears the
    # threshold (lambda_max + eps) m u of ``_check_definite`` even after
    # rounding the shift and the products, so lambda_min > -eps.
    u = _MACHINE_EPS
    last, d = len(coeffs) - 1, coeffs.shape[1]
    n = len(a) // d
    grow = 1 + _rounding(last + 2 * (n + 2) * d * d + 16)
    # C_k newest first for k = L .. 1 - N: M_L .. M_1, C_0, M_1* .. M_{N-1}*;
    # the window of rho_n starts at position L - n + 1
    row = np.empty((d, last + n, d), dtype=complex)
    row[:, :last] = coeffs[:0:-1].transpose(1, 0, 2)
    if n:
        row[:, last] = _hermitian(coeffs[0]) + eps * np.eye(d)
        row[:, last + 1 :] = coeffs[1:n].conj().transpose(2, 0, 1)
    windows = _windows(row, d, (last, d, n * d), (d, (last + n) * d, 1))
    # rho^_1 .. rho^_L and e_1 .. e_L
    rho = (row[:, :last].transpose(1, 0, 2) - windows @ a)[::-1]
    squares = _frobenius_squares(row.transpose(1, 0, 2))
    window_norms = np.sqrt(_windows(squares, 1, (last, n), (1, 1)).sum(axis=1))
    a_norm = np.sqrt(_frobenius_squares(a))
    err = (_rounding(n * d + 4) * (np.sqrt(squares[:last]) + window_norms * a_norm))[::-1]
    alpha = np.sqrt(_frobenius_squares(a.reshape(n, d, d))).sum() * grow
    off = (3 + 2 * alpha) * (np.sqrt(_frobenius_squares(rho)) + err).sum() * grow

    first = rho[:n].reshape(n * d, d)
    g = alpha_inv - a.conj().T @ first
    h = (g + g.conj().T) / 2
    m0_norm, alpha_inv_norm, g_norm, h_norm = np.sqrt(
        _frobenius_squares(np.stack([coeffs[0], alpha_inv, g, h]))
    )
    col_norm = np.sqrt(squares[last - n : last].sum())
    products = col_norm * a_norm + a_norm * np.sqrt(_frobenius_squares(first))
    terms = m0_norm + eps * np.sqrt(d) + alpha_inv_norm + g_norm + products
    err_g = (_rounding(n * d + 4) * terms + a_norm * err[:n].sum()) * grow
    g_eigs = np.linalg.eigvalsh(h)
    g_margin = 2 * d * u * h_norm * grow
    size = len(eigs)
    data_margin = margin / 2 / (1 - 2 * size * u) * grow
    lowest = min(eigs[0] + eps - data_margin, g_eigs[0] - g_margin - err_g)
    total = abs(eigs[0]) + eps + data_margin + abs(g_eigs[0]) + g_margin + err_g + off
    gap = lowest - off - 16 * u * total
    if not gap > 0:
        return -np.inf
    return gap / (1 + alpha) ** 2 * (1 - 32 * u)


def _certify_chained(seq, eps, tau):
    # ``_certify`` of a chained level, settled by one shifted Cholesky
    # factorisation (``_cholesky_exceeds``) where that provably passes.  With
    # A the level's m x m matrix, nu >= ||A||_2 and ``tau`` its
    # ``_chained_tau`` (which the caller has), the factorisation succeeding
    # proves lambda_min(A + eps I) > tau = (nu + eps) m u (1 + 2 m u) +
    # 2 m u nu.  Eigenvalues computed by eigvalsh lie within 2 m u nu of the
    # exact ones (the convention of ``positivity_profile``), so ``_certify``
    # would find lambda_min + eps above the threshold (lambda_max + eps) m u
    # of ``_check_definite``, hence lambda_min > -eps: it passes.  Otherwise
    # ``_certify`` itself decides on the level, assembled afresh once the
    # shifted copy is dropped.  ``tol`` plays no part in either.
    if not _cholesky_exceeds(assemble(seq).dense, -eps, tau):
        _certify(seq, eps)


def solve_cf(seq, horizon, eps=1e-8, tol=1e-9, radius=0.9):
    """Solve the truncated-coefficient interpolation problem.

    Up to ``horizon`` = N this is ``certified_series``: one shifted
    Cholesky factorisation of T_N, O(N^3 d^3).  Beyond it the data are
    extended centrally by ``extend`` until the coefficient list reaches
    index ``horizon``, with its certificate and cost.  The returned series
    interpolates the input exactly: its first N + 1 coefficients are
    bitwise equal to ``seq``.

    Raises
    ------
    ValueError
        If ``horizon`` is negative, ``tol`` is negative, NaN or infinite,
        or, beyond N, ``eps`` is not positive and finite.
    NotPsdError
        Naming the first truncation level whose Toeplitz matrix fails.
    SingularBlockError
        As ``extend``: a shift too small for the data, or an extension that
        fails its final check.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    if horizon <= seq.order:
        return certified_series(seq, radius, tol)
    return HerglotzSeries(extend(seq, horizon - seq.order, eps, tol=tol), radius, certified=True)
