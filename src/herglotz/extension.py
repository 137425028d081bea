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
shifted Toeplitz matrix of (M_0 .. M_N, X) is.  Zero contractions take the
centers, the central extension of the eps-shifted data.

Routing.  Every entry point checks the shift's sign, then the data from
one ``eigh`` of T_N (``toeplitz._decomposed``, which
``series.gram_isometries`` shares): the extension needs the spectrum
(its ends for the chain's test of the shifted data level, all of it for
the minimal factor and its rank), so it does not take the rungs of
``certified_series``: the atom rung, which decides determinate data from
a leading block T_s by continuing it with the determinate branch of the
central extension below, and the Cholesky certificate of T_N.  (Taking
the extension's own factor from T_s on determinate data would move its
outputs past N by rounding; it is not done.)  Where the smallest
eigenvalue clears -tol by the interlacing margin, the eigenvalue check
behind ``certified_series`` (``toeplitz._certified_data``) provably
passes every level; otherwise that check decides on the same T_N.
Either way verdicts and messages are those of the eigenvalue check.
Data that pass it but whose spectrum passes the float maximum (a
non-finite top eigenvalue of T_N) are refused there with
SingularBlockError naming the spectrum, for every entry point.

Central extension.  ``extend`` without contractions takes the central
extension from the data's minimal factor, with no shift
(``toeplitz._central_extension``, which the atom rung of the data check
shares): the r eigenpairs of T_N above the interlacing
margin give T_N = F* F with r x d blocks F_j, and W = Q P^+, for the past
and future blocks P = (F_0 ... F_{N-1}) and Q = (F_1 ... F_N), is the
partial isometry from ran P onto ran Q with F_j = W^j F_0.  Then
M_n = F_0* W^n F_0 for n <= N, and continued past N this is the central
(maximum-entropy) extension: the zero parameter of the Arov-Grossman
description of all extensions, which the chain of eps-shifted centers
approaches as eps -> 0.  W comes from the SVD of Q P* = W (P P*), its rank
k counted above the same margin, so the routing is scale-relative.  On
determinate data (k = r: rank T_N = rank T_{N-1}) W is unitary and the
extension unique; M_n = sum_k g_k g_k* lambda_k^n over the eigenpairs of
W, in one product over the unit-circle powers, O(N^3 d^3 + L r d^2).
Otherwise (k < r, partially determinate data, 0 < rank S < d, included)
the orbit X_n = W^n F_0 (``linalg._orbit``, the running product that also
expands the realization fixtures and ``series.gram_isometries``) gives
M_n = F_0* X_n, one r x r by r x d product per step, O(N^3 d^3 + L r^2 d).
Either way each coefficient's bits do not depend on the horizon L.

Its certificate.  For a contraction Wt, the Toeplitz matrix of
F_0* Wt^n F_0 is exactly PSD (a unitary dilation of Wt makes it a Gram
matrix; for unitary W it is the matrix of a measure on the circle).  So
lambda_min(T_L) >= -beta, beta the block row sum of the output's defects
against that model: the data's defects, the rounding of each product and,
for k < r, its propagation through the powers of the computed W (whose
decay is bounded by repeated squaring) and the drift of Wt = W / (1 +
delta), delta >= ||W||_2 - 1.  beta is the first rung of the output check
below, at the bound max(tol, eps).  It grows with the data and, for slowly
decaying powers of W, with L^2; where it exceeds the bound, the later rungs
decide on the same output.  Either way the output is the central
extension's, whatever eps is: eps moves no central output.

Shifted chain.  Only parametrized chains take it.  Every contraction is
checked (block shape, finite entries, operator norm at most 1) before the
data, so the loop does arithmetic only.  The chain builds the state above
from the same T_N and eigenvalues, with one solve for both predictors, and
runs one loop over a newest-first buffer of the coefficients, in which
gamma of every level is a strided view: each step takes the center gamma a,
moves to its ball point and borders the state.  A step factors each d x d
matrix it divides by once, by two ``eigh`` and no solve: the ``eigh`` of S
gives S^{1/2} and S^{-1/2}, and that of the Hermitian part of alpha^{-1}
gives alpha^{-1/2} and alpha^{1/2}; either is refused with
SingularBlockError, naming the step k and the level N + k it appends,
where its least eigenvalue is not positive, which would divide by zero.
So D = S^{1/2} Gamma alpha^{-1/2},
v = S^{-1} D = S^{-1/2} Gamma alpha^{-1/2} and p = alpha^{1/2} Gamma* S^{1/2},
and a zero Gamma gives D = v = p = 0 exactly.  The subtraction updates of S
and alpha^{-1} are kept on purpose: the congruence
S' = S^{1/2} (I - Gamma Gamma*) S^{1/2} of exact algebra stays positive
definite whatever the rounding does to the chain, so the check of S would
see nothing.  Every Hermitian part is formed by
``linalg._hermitian``, halved before adding, so data near the float
maximum give a finite S.

The chain's solves need the eps-shifted matrix of the data level N, of
size m = (N + 1) d, positive definite at working precision: its least
eigenvalue must clear the rounding margin ``toeplitz._margin`` with
factor 1 and norm its largest eigenvalue.  That is tested before
the state is built, and a refusal raises SingularBlockError naming level
N: the data passed their own check, so the shift is too small for them.
Past it no level has a rule of its own: where the chain's rounding (or a
unit-norm contraction, whose ball point lies on the boundary) takes it
off the ball, the output check below refuses the whole output.
NotPsdError is raised for the data only.

One output check (``toeplitz._checked_output``).  Every output promises one
inequality, lambda_min(T_L) >= -bound, with bound = max(tol, eps) for the
central extension and eps for a parametrized chain, and every output is
judged in one place, by the first of these rungs that proves it:

1. the certificate, beta <= bound (the central extension only);
2. the Cholesky rung of the data check (``toeplitz._clearing_pivots``): one
   factorisation of T_L shifted down to -bound plus the rounding margin of
   the data check (``toeplitz._margin``, factor 2), which proves the exact
   lambda_min(T_L) > -bound;
3. the eigenvalue rung: one ``eigvalsh`` of T_L, whose computed lambda_min
   must clear -bound by ``toeplitz._margin`` with factor 1 and norm
   lambda_max + bound, the working-precision threshold of the chain's test
   of the data level, which the property tests check against the exact
   lambda_min(T_L) in rational arithmetic.
   T_L and the bound are scaled by 2^-k first, k the exponent of T_L's
   largest diagonal entry.  A power of 2 scales exactly, so where the
   spectrum of T_L is finite the rung decides as on T_L itself, and where
   it passes the float maximum the rung still decides.

Where all three fail, SingularBlockError names the route, the level L, the
bound, the least eigenvalue and the margin, unscaled.  A non-finite output
(data near the float maximum) is refused by the same check before any
sequence is built, so NotPsdError still names only the data.  A unit-norm
contraction at the last step lands on the boundary of the ball, where
lambda_min(T_L) = -eps in exact arithmetic: it is refused.  The margin
grows with the size and scale of T_L, so at a fixed bound large outputs of
large data are refused even where they are PSD (rank-deficient data scaled
by 1e4, extended to 256 levels at the default bound 1e-8, are refused so):
the absolute bounds await relative tolerances.

For real symmetric data the reversed and unreversed partitions coincide;
for complex data only the reversed one keeps the bordered matrix positive.
The center X_c is the central completion of the eps-shifted data, not the
unshifted central extension that ``extend`` returns: the chain of centers
approaches that extension as eps -> 0, so each is a solution of the
truncated-data interpolation problem, with different bits.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, OutOfBallError, SingularBlockError
from .linalg import _hermitian, _integer
from .series import HerglotzSeries, certified_series
from .toeplitz import (
    _central_extension,
    _checked_output,
    _decomposed,
    _margin,
    _minimal_factor,
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


def _roots(a, name=None, where=""):
    # the square root of the Hermitian part of a, tiny negatives of its
    # eigenvalues clamped; given the ``name`` of a, also its inverse square
    # root, after refusing a part whose least eigenvalue is not positive (a
    # clamped eigenvalue would give 1 / 0), ``where`` placing it in the
    # refusal
    eigs, vecs = np.linalg.eigh(_hermitian(a))
    if name is not None and not eigs[0] > 0:
        raise SingularBlockError(
            f"{name} is not positive definite at working precision{where} "
            f"(least eigenvalue {eigs[0]:.3e})"
        )
    roots = np.sqrt(np.clip(eigs, 0.0, None))
    return [(vecs * r) @ vecs.conj().T for r in ([roots] if name is None else [roots, 1 / roots])]


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


def _count(value, name):
    # ``value`` as a nonnegative int (numpy integers pass, ``linalg._integer``),
    # refused as the argument ``name`` before any arithmetic
    if (count := _integer(value, name)) < 0:
        raise ValueError(f"{name} must be nonnegative, got {count}")
    return count


def _check_shift(eps):
    # the shift ``eps`` of every extension entry point, refused unless
    # positive and finite
    if not 0 < eps < np.inf:
        raise ValueError(f"shift eps must be positive and finite, got {eps}")


def _contraction(contraction, shape):
    # the contraction parameter as a complex array of the block ``shape``,
    # refused by ``_block`` or when its operator norm exceeds 1
    g = _block(contraction, shape, "contraction")
    norm = float(np.linalg.norm(g, 2))
    if not norm <= 1 + 1e-12:
        raise OutOfBallError(f"contraction has operator norm {norm:.6f} > 1")
    return g


def _ball_state(seq, eps, dense, eigs):
    # block-Levinson state (a, b, S, alpha^{-1}) of the level of ``seq``,
    # with its gamma, from T_N = ``dense`` and its eigenvalues ``eigs``
    # (``toeplitz._decomposed``).  Its solves need the eps-shifted T_N
    # positive definite at working precision: its least eigenvalue must
    # clear the threshold ``toeplitz._margin`` with factor 1 and norm top,
    # its largest, which overflows nowhere.  The data passed their own
    # check, so a refusal is a shift too small for the data
    d = seq.block_dim
    least, threshold = eigs[0] + eps, _margin(len(eigs), eigs[-1] + eps, 1)
    if least <= threshold:
        raise SingularBlockError(
            f"the eps-shifted Toeplitz matrix at level {seq.order} is not positive definite at "
            f"working precision (eps = {eps:.3e}: tested eigenvalue {least:.3e} <= threshold "
            f"{threshold:.3e})"
        )
    rev = eps * np.eye(dense.shape[0]) + reverse_blocks(dense, d)
    # stable route: solve against the one-level-down shifted matrix instead
    # of recombining inverse blocks, which cancels catastrophically for tiny
    # eps; both predictors from one factorisation, copied out contiguous
    # (numpy multiplies strided column blocks with other roundings)
    corner, col, sub, gamma = rev[:d, :d], rev[d:, :d], rev[d:, d:], rev[-d:, :-d]
    both = np.linalg.solve(sub, np.hstack([col, gamma.conj().T]))
    forward, backward = both[:, :d].copy(), both[:, d:].copy()
    s = corner - gamma @ backward
    return forward, backward, _hermitian(s), corner - col.conj().T @ forward, gamma


def central_step(seq, eps, tol=1e-9):
    """The eps-shifted ball of the next coefficient and its center.

    The center X_c is the central completion of the eps-shifted data, not
    the next coefficient of ``extend``'s unshifted central extension; it
    approaches that coefficient as ``eps`` -> 0.

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
        The step intermediates and the ball's center X_c.

    Raises
    ------
    ValueError
        If ``eps`` is not positive and finite, or ``tol`` is negative,
        NaN or infinite.
    NotPsdError
        Naming the first truncation level whose Toeplitz matrix fails (the
        check of ``certified_series``).
    SingularBlockError
        If the spectrum of T_N passes the float maximum, or ``eps`` is too
        small to make the shifted matrix invertible at working precision.
    """
    _check_shift(eps)
    forward, _, s, alpha_inv, gamma = _ball_state(seq, eps, *_decomposed(seq, tol)[:2])
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
    margin = float(np.linalg.eigvalsh(_hermitian(gap))[0])
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
    return step.x_center + _roots(step.left_bound)[0] @ g @ _roots(step.alpha, "alpha")[1]


def extend(seq, steps, eps=1e-8, contractions=None, tol=1e-9):
    """Append ``steps`` coefficients: the central extension or a chain of ball points.

    With ``contractions`` absent the output is the central
    (maximum-entropy) extension, taken with no shift from the data's
    minimal factor; otherwise entry k selects the ball point of
    ``parametrized_step`` of the eps-shifted chain.  The first N + 1
    coefficients of the output are bitwise those of the input, and the
    central extension's coefficients do not depend on ``steps``: a shorter
    one is bitwise a prefix of a longer one.  The data are checked with
    ``tol``, with the verdicts and messages of the eigenvalue check behind
    ``certified_series``.  Every output keeps one bound: the smallest
    eigenvalue of its Toeplitz matrix T_L is at least -max(tol, eps) for
    the central extension, which is the same output whatever ``eps`` is,
    and -eps for a parametrized chain, where ``tol`` plays no part.  One
    output check judges every output against its bound; the module
    docstring states its rungs and the certificates.

    Cost to horizon H = N + steps, for data of rank r: O(N^3 d^3 + H r d^2)
    for the central extension of determinate data (rank T_N = rank
    T_{N-1}), O(N^3 d^3 + H r^2 d) for that of other data, plus its
    certificate's propagation bound, O(H log H + r^3 log H);
    O(N^3 d^3 + H^2 d^3) for the steps of a parametrized chain.  Where the
    certificate does not settle the output (every parametrized chain, and
    a central extension past it), the output check's dense rungs add
    O(H^3 d^3).

    Raises
    ------
    TypeError
        If ``steps`` is not an integer (numpy integers are), before any
        arithmetic.
    ValueError
        If ``steps`` is negative, ``eps`` is not positive and finite, or
        ``tol`` is negative, NaN or infinite.
    DimensionError
        If the number or the block shape of the contractions is wrong.
    NotPsdError
        Naming the first truncation level of the data whose Toeplitz
        matrix fails; raised for the data only.
    SingularBlockError
        If the spectrum of the data's Toeplitz matrix passes the float
        maximum.  Where the output check refuses an output, naming the
        central extension or the parametrized chain, level L, the bound,
        the least eigenvalue and the margin.
        For a parametrized chain also, naming level N, where the
        eps-shifted Toeplitz matrix of the data is not positive definite at
        working precision (a shift too small for the data); or if the bound
        S or the alpha^{-1} of a step is not positive definite, naming the
        step and the level it appends.
    OutOfBallError
        If a contraction has a non-finite entry or operator norm above 1.
        Every contraction is checked, after their count and before the
        data.
    """
    steps = _count(steps, "steps")
    if contractions is not None and len(contractions) != steps:
        raise DimensionError(f"expected {steps} contraction parameters, got {len(contractions)}")
    if contractions is not None:
        contractions = [_contraction(g, (seq.block_dim,) * 2) for g in contractions]
    _check_shift(eps)
    dense, eigs, vecs, margin = _decomposed(seq, tol)
    if steps == 0:
        return seq
    if contractions is None:
        factor = _minimal_factor(eigs, vecs, margin, seq.block_dim)
        coeffs, beta = _central_extension(seq, dense, factor, steps)
        return _checked_output(coeffs, max(tol, eps), "central extension", beta)
    n, d = len(seq), seq.block_dim
    a, b, s, alpha_inv, _ = _ball_state(seq, eps, dense, eigs)
    # the coefficients newest first in one d x (N + 1 + steps) d row, filled
    # from the right
    rev = np.empty((d, n + steps, d), dtype=complex)
    rev[:, steps:] = seq.coefficients[::-1].transpose(1, 0, 2)
    for k, g in enumerate(contractions):
        # D = S^{1/2} G alpha^{-1/2}, v = S^{-1} D = S^{-1/2} G alpha^{-1/2} and
        # p = alpha D* = alpha^{1/2} G* S^{1/2} from one eigh of S and one of
        # alpha^{-1}, each refused naming the step and the level it appends;
        # the step's coefficient goes before the window of gamma,
        # M_{N+k} .. M_1
        where = f" at chain step {k + 1}, level {n + k}"
        s_half, s_inv_half = _roots(s, "S", where)
        a_inv_half, a_half = _roots(alpha_inv, "alpha^{-1}", where)
        diff = s_half @ g @ a_inv_half
        rev[:, steps - 1 - k] = rev[:, steps - k : -1].reshape(d, -1) @ a + diff
        v, p = s_inv_half @ g @ a_inv_half, a_half @ g.conj().T @ s_half
        a, b = np.vstack([a - b @ v, v]), np.vstack([p, b - a @ p])
        s, alpha_inv = _hermitian(s - diff @ p), alpha_inv - diff.conj().T @ v
    return _checked_output(rev[:, ::-1].transpose(1, 0, 2), eps, "parametrized chain")


def solve_cf(seq, horizon, eps=1e-8, tol=1e-9, radius=0.9):
    """Solve the truncated-coefficient interpolation problem.

    Up to ``horizon`` = N this is ``certified_series``: on determinate
    data the atom rung, from a leading block T_s, O(s^3 d^3 + N r d^2);
    otherwise one shifted Cholesky factorisation of T_N, O(N^3 d^3).
    Beyond it the data are
    extended centrally by ``extend`` until the coefficient list reaches
    index ``horizon``, with its contract and cost: lambda_min(T_L) >=
    -max(tol, eps), in O(N^3 d^3 + H r^2 d) for data of rank r
    (O(N^3 d^3 + H r d^2) on determinate data) while the certificate
    settles it, and ``eps`` moves no coefficient.  The returned series
    interpolates the input exactly: its first N + 1 coefficients are
    bitwise equal to ``seq``, and the later ones do not depend on
    ``horizon``.

    Raises
    ------
    TypeError
        If ``horizon`` is not an integer (numpy integers are), before any
        arithmetic.
    ValueError
        If ``horizon`` is negative, ``eps`` is not positive and finite (at
        every horizon, checked before the data), or ``tol`` is negative,
        NaN or infinite.
    NotPsdError
        Naming the first truncation level whose Toeplitz matrix fails.
    SingularBlockError
        As ``extend``: where the spectrum of T_N passes the float maximum,
        or the output check refuses the central extension.
    """
    horizon = _count(horizon, "horizon")
    _check_shift(eps)
    if horizon <= seq.order:
        return certified_series(seq, radius, tol)
    return HerglotzSeries(extend(seq, horizon - seq.order, eps, tol=tol), radius, certified=True)
