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
(its top for the singularity rule of the chain, all of it for the minimal
factor and its rank), so it does not take the Cholesky certificate of
``certified_series``.  Where the smallest eigenvalue clears -tol by the
interlacing margin, the eigenvalue check behind ``certified_series``
(``toeplitz._certified_data``) provably passes every level; otherwise that
check decides on T_N assembled afresh.  Either way verdicts and messages
are those of the eigenvalue check.  Data that pass it but whose spectrum
passes the float maximum (a non-finite top eigenvalue of T_N) are refused
there with SingularBlockError naming the spectrum, for every entry point.

Central extension.  ``extend`` without contractions takes the central
extension from the data's minimal factor, with no shift
(``_central_extension``): the r eigenpairs of T_N above the interlacing
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
the orbit X_n = W^n F_0 (``series._orbit``, the running product that also
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
gives the eigenvalues that the singularity rule tests, S^{1/2} and
S^{-1/2}; the ``eigh`` of the Hermitian part of alpha^{-1} gives
alpha^{-1/2} and alpha^{1/2} (and refuses an alpha^{-1} that is not
positive definite).  So D = S^{1/2} Gamma alpha^{-1/2},
v = S^{-1} D = S^{-1/2} Gamma alpha^{-1/2} and p = alpha^{1/2} Gamma* S^{1/2},
and a zero Gamma gives D = v = p = 0 exactly.  The subtraction updates of S
and alpha^{-1} are kept on purpose: the congruence
S' = S^{1/2} (I - Gamma Gamma*) S^{1/2} of exact algebra stays positive
definite whatever the rounding does to the chain, so the check of S would
see nothing.  Every Hermitian part is formed by
``linalg._hermitian``, halved before adding, so data near the float
maximum give a finite S.

The chain's singularity rule (``_check_definite``) guards what the chain
inverts: the eps-shifted matrix of level n, of size m = (n + 1) d, is
positive definite at working precision when a tested eigenvalue clears
top m u, top its largest eigenvalue.  It tests the data level N before the
state is built (the predictors' solve is against level N - 1), and at each
step the bound S that the step inverts, of level N at the first step (S is
a Schur complement of the level's shifted matrix, so it is positive
definite exactly when that matrix is).  The data passed their own check,
so a refusal raises SingularBlockError naming the level: the shift is too
small for the data, or the chain's rounding (or a unit-norm contraction,
whose ball point lies on the boundary) took it off the ball.  NotPsdError
is raised for the data only.

One output check (``_checked_output``).  Every output promises one
inequality, lambda_min(T_L) >= -bound, with bound = max(tol, eps) for the
central extension and eps for a parametrized chain, and every output is
judged in one place, by the first of these rungs that proves it:

1. the certificate, beta <= bound (the central extension only);
2. the Cholesky rung of the data check (``toeplitz._clearing_pivots``): one
   factorisation of T_L shifted down to -bound plus the rounding margin of
   the eigenvalue computation, which proves the exact lambda_min(T_L) >
   -bound;
3. the eigenvalue rung: one ``eigvalsh`` of T_L, whose computed lambda_min
   must clear -bound by the rounding margin (lambda_max + bound) m u, for
   T_L of size m and u machine eps, the working-precision threshold of the
   chain's rule: a margin for the rounding of eigvalsh, which the property
   tests check against the exact lambda_min(T_L) in rational arithmetic.
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
from .linalg import _MACHINE_EPS, _hermitian, _integer
from .series import HerglotzSeries, _orbit, _powers, certified_series
from .toeplitz import (
    CoefficientSequence,
    _clearing_pivots,
    _decomposed,
    _frobenius_squares,
    _minimal_factor,
    _rounding,
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

# e^{i}, the turn of a unitary W whose Hermitian part gives W's eigenvectors
_TURN = np.exp(1j)
# the number of coefficients each block of the determinate product forms
_BLOCK = 16


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


def _roots(a, name=None, *rule):
    # the square root of the Hermitian part of a, tiny negatives of its
    # eigenvalues clamped; given the ``name`` of a, also its inverse square
    # root, after refusing a part that is not positive definite (a clamped
    # eigenvalue would give 1 / 0): by the chain's singularity rule
    # ``_check_definite`` where its arguments after the least eigenvalue are
    # given as ``rule``, and otherwise where that eigenvalue is not positive
    eigs, vecs = np.linalg.eigh(_hermitian(a))
    if rule:
        _check_definite(eigs[0], *rule)
    elif name is not None and not eigs[0] > 0:
        raise SingularBlockError(
            f"{name} is not positive definite at working precision "
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


def _check_definite(least, top, level, d, eps):
    # the singularity rule of the shifted chain, which needs the eps-shifted
    # Toeplitz matrix A of ``level`` (data M_0 .. M_level, size m = (level +
    # 1) d) invertible for its solves: A is positive definite at working
    # precision.  ``least`` is the smallest computed eigenvalue of A, or of
    # the bound S of the level, a Schur complement of A, so lambda_min(A) <=
    # lambda_min(S) and A is positive definite exactly when S is; ``top`` is
    # the largest eigenvalue of A, or a lower bound on it.  A ``least`` that
    # does not clear the threshold top m u is refused.  The data passed their
    # own check, so a refusal is the shift or the chain's rounding, never the
    # data.  m u is exact (u a power of 2), so top is multiplied once: no
    # overflow for top near the float maximum, and the bits of top m u
    # elsewhere (away from underflow)
    threshold = top * ((level + 1) * d * _MACHINE_EPS)
    if least <= threshold:
        raise SingularBlockError(
            f"the eps-shifted Toeplitz matrix at level {level} is not positive definite at "
            f"working precision (eps = {eps:.3e}: tested eigenvalue {least:.3e} <= threshold "
            f"{threshold:.3e})"
        )


def _checked_output(coeffs, bound, route, beta=np.inf):
    # the one judge of an ``extend`` output M_0 .. M_L = ``coeffs``, as a
    # sequence: lambda_min(T_L) >= -bound, the bound the ``route`` promises,
    # by the first rung of the module docstring's ladder that proves it: the
    # certificate ``beta`` (the central extension's; a chain has none), the
    # Cholesky rung of the data check, then one eigvalsh of T_L scaled by
    # 2^-k, k the exponent of its largest diagonal entry (T_L's diagonal is
    # Re M_0's), against the bound scaled alike, so that a spectrum past the
    # float maximum is decided too.  A non-finite output is refused before a
    # sequence is built, whose own check would blame the data with
    # NotPsdError
    least = margin = np.nan
    if np.isfinite(coeffs).all():
        out = CoefficientSequence(coeffs)
        if beta <= bound or _clearing_pivots(out, bound) is not None:
            return out
        k = np.frexp(coeffs[0].diagonal().real.max())[1]
        # T_L as its interleaved real and imaginary parts, which ldexp scales
        eigs = np.linalg.eigvalsh(np.ldexp(assemble(out).dense.view(float), -k).view(complex))
        shift = np.ldexp(bound, -k)
        least, margin = eigs[0], (eigs[-1] + shift) * (len(eigs) * _MACHINE_EPS)
        if least + shift > margin:
            return out
        least, margin = np.ldexp((least, margin), k)
    raise SingularBlockError(
        f"the Toeplitz matrix of the {route} at level {len(coeffs) - 1} is not PSD within "
        f"{bound:.3e} (least eigenvalue {least:.3e}, rounding margin {margin:.3e})"
    )


def _ball_state(seq, eps, dense, eigs):
    # block-Levinson state (a, b, S, alpha^{-1}) of the level of ``seq``,
    # with its gamma, from T_N = ``dense`` and its eigenvalues ``eigs``
    # (``toeplitz._decomposed``), after the singularity check of its level
    d = seq.block_dim
    _check_definite(eigs[0] + eps, eigs[-1] + eps, seq.order, d, eps)
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
        For a parametrized chain also, naming the level, where the
        eps-shifted Toeplitz matrix it inverts is not positive definite at
        working precision: the data level (a shift too small for the data)
        or a level whose bound S a step inverts (the data passed their
        check, so the failure is the chain's rounding or a unit-norm
        contraction); or if the alpha^{-1} of a step is not positive
        definite.
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
        coeffs, beta = _central_extension(seq, dense, eigs, vecs, margin, steps)
        return _checked_output(coeffs, max(tol, eps), "central extension", beta)
    n, d = len(seq), seq.block_dim
    a, b, s, alpha_inv, _ = _ball_state(seq, eps, dense, eigs)
    # the coefficients newest first in one d x (N + 1 + steps) d row, filled
    # from the right
    rev = np.empty((d, n + steps, d), dtype=complex)
    rev[:, steps:] = seq.coefficients[::-1].transpose(1, 0, 2)
    for k, g in enumerate(contractions):
        # D = S^{1/2} G alpha^{-1/2}, v = S^{-1} D = S^{-1/2} G alpha^{-1/2} and
        # p = alpha D* = alpha^{1/2} G* S^{1/2} from one eigh of S, whose level
        # N + k the singularity rule tests first, and one of alpha^{-1}; the
        # step's coefficient goes before the window of gamma, M_{N+k} .. M_1
        s_half, s_inv_half = _roots(s, "S", eigs[-1] + eps, n - 1 + k, d, eps)
        a_inv_half, a_half = _roots(alpha_inv, "alpha^{-1}")
        diff = s_half @ g @ a_inv_half
        rev[:, steps - 1 - k] = rev[:, steps - k : -1].reshape(d, -1) @ a + diff
        v, p = s_inv_half @ g @ a_inv_half, a_half @ g.conj().T @ s_half
        a, b = np.vstack([a - b @ v, v]), np.vstack([p, b - a @ p])
        s, alpha_inv = _hermitian(s - diff @ p), alpha_inv - diff.conj().T @ v
    return _checked_output(rev[:, ::-1].transpose(1, 0, 2), eps, "parametrized chain")


def _central_extension(seq, dense, eigs, vecs, margin, steps):
    # The central extension M_0 .. M_L (L = N + steps) of the data from their
    # minimal factor, with the bound beta of its certificate,
    # lambda_min(T_L) >= -beta.  ``dense``, ``eigs``, ``vecs`` and ``margin``
    # are T_N, its computed eigenpairs and their interlacing margin
    # (``toeplitz._decomposed``).
    #
    # Realization.  The r eigenpairs of T_N above the interlacing margin give
    # a minimal factor T_N ~ F* F, F = (F_0 ... F_N) with r x d blocks.  For
    # the past block P = (F_0 ... F_{N-1}) and the future block Q = (F_1 ...
    # F_N), P* P = T_{N-1} = Q* Q, so Q x = 0 exactly where P x = 0, and
    # W = Q P^+ maps ran P isometrically onto ran Q and is zero on its
    # complement: a partial isometry with Q = W P, so F_j = W^j F_0 and
    # M_n = F_0* W^n F_0 for n <= N.  Continued past N this is the central
    # (maximum-entropy) extension, the zero parameter of the Arov-Grossman
    # description of all extensions (Math. Nachr. 157 (1992); Dym & Gohberg,
    # LAA 36 (1981)).  Q P* = W (P P*) is a polar decomposition, so the SVD
    # outer sv inner of the r x r matrix Q P* (the singular values are the
    # eigenvalues of P P*) gives W = outer_k inner_k from the k singular
    # values above the same margin (``linalg._procrustes``).  k = r is
    # rank T_{N-1} = rank T_N (P has N d columns, so r <= N d): the data are
    # determinate, W is unitary and the extension is unique (the determinate
    # Caratheodory-Toeplitz case).
    #
    # Determinate data (k = r).  The Hermitian part of e^{i} W has the
    # eigenvectors q_k of W and eigenvalues cos(arg lambda_k + 1), which tie
    # only where two arguments sum to -2 (mod 2 pi): equal eigenvalues share
    # their eigenvectors, and conjugate pairs (real data) and roots of unity
    # never tie; an accidental near-tie mixes two eigenvectors, and the
    # certificate then fails.  The eigenvalues lambda_k are read back as
    # Rayleigh quotients scaled to unit modulus, so M_n = sum_k g_k g_k*
    # lambda_k^n with g_k = F_0* q_k, in one (L, r) x (r, d^2) product with
    # the powers of ``series._powers``.  The product is formed in row
    # blocks of one height, _BLOCK, over a power table padded to a multiple
    # of it, so the bits of each M_n do not depend on L.
    #
    # Certificate (k = r).  Let l_k = lambda_k / |lambda_k| exactly and
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
    # L^2 u ||G||^2, the rest like L r u; the branch costs O(N^3 d^3 + L r d^2).
    #
    # Other data (k < r).  X_0 = F_0 and X_n = fl(W^ X_{n-1}) for the
    # computed W^: the orbit of F_0 under W^ (``series._orbit``, the running
    # product of every realization in the library), one r x r by r x d
    # product per step, and M^_n = fl(F_0* X_n): each coefficient comes from
    # the same products whatever L, in O(N^3 d^3 + L r^2 d).
    #
    # Certificate (k < r).  With delta >= ||W^||_2 - 1, Wt = W^ / (1 + delta)
    # is a contraction, so Wt^n = P_H U^n |_H for a unitary dilation U
    # (Sz.-Nagy), and the Toeplitz matrix of Mt_n = F_0* Wt^n F_0 is a Gram
    # matrix, exactly PSD.  beta is formed against it as above; the model's
    # part of each defect splits as
    #
    #     M^_n - Mt_n = (M^_n - F_0* X_n) + F_0* (X_n - W^^n F_0)
    #                   + (1 - (1 + delta)^-n) F_0* W^^n F_0.
    #
    # With x_n = ||X_n||_F and f = x_0 >= ||F_0||_2, the first term is at
    # most c f x_n (inner products of length r).  The second is F_0* sum_j
    # W^^{n-j} e_j for the rounding e_j of step j, ||e_j||_F <= c ||W^||_F
    # x_{j-1}, for bounds w_m >= ||W^^m||_2: the product of nu_i over the
    # binary digits 2^i of m, nu_0 = 1 + delta rounded up, and nu_i >=
    # ||W^^(2^i)||_2 the lesser of nu_{i-1}^2 and ||Z_i||_F + a_i for the
    # computed squares Z_i = fl(Z_{i-1}^2), Z_0 = W^, whose distance a_i from
    # W^^(2^i) obeys a_i <= (2 nu_{i-1} + a_{i-1}) a_{i-1} + c ||Z_{i-1}||_F^2
    # (A^2 - B^2 = A (A - B) + (A - B) B).  So the decay of the powers bounds
    # the propagation: the second terms sum over n to at most c f ||W^||_F
    # sum_j x_{j-1} s_{L-j}, with the prefix sums s_K = w_0 + ... + w_K.  The
    # third term is at most min(1, n delta) ||F_0* W^^n F_0||, and that norm
    # at most ||M^_n||_F plus the bounds of the first two: the model's share
    # of ||E_n|| is at most twice those bounds plus min(1, n delta) ||M^_n||_F.
    # For delta, W^ = fl(U V*) with U = outer_k and V* = inner_k; ||U||_2^2
    # <= 1 + a_U, a_U = ||fl(U* U - I)||_F (1 + u) + c ||U||_F^2, the same for
    # V, so ||W^||_2 <= 1 + (a_U + a_V) / 2 + c ||U||_F ||V||_F.  delta, each
    # a_i and each nu_i is grown by 1 + gamma_{2 r^2 + 16}, which covers its
    # own roundings (a Frobenius norm of an r x r matrix and a few more), so
    # each is a bound computed from bounds.  The data's defects enter as
    # above.  Every other nonnegative term is computed from those by at most
    # K = 2 (L + r d + d^2 + log_2 L) + 32 roundings of nonnegative terms, so
    # the sum grown by 1 + gamma_K bounds beta.
    #
    # F = V_r* for V_r, the top r eigenvectors scaled by the roots of their
    # eigenvalues (``toeplitz._minimal_factor``, which also gives W's two
    # factors), so Q P* and F_0* = V_r[:d] need no adjoint of F; each
    # array's squared moduli are summed in its own layout
    # (``_frobenius_squares``): the defects as block columns of T_N's first
    # block row, the model's M_0 and the data's as one stack of blocks.
    n, d = len(seq), seq.block_dim
    last = n - 1 + steps
    rows, r, outer, inner = _minimal_factor(eigs, vecs, margin, d)
    u, c = _MACHINE_EPS, _rounding(r + 4)
    lam, g, k = np.empty(0, dtype=complex), np.empty((d, 0), dtype=complex), outer.shape[1]
    # data near the float maximum overflow here to an infinite or NaN beta,
    # which fails the output check's first rung and leaves the output to the
    # later ones
    with np.errstate(over="ignore", invalid="ignore"):
        w = outer @ inner
        if k < r:
            xs = _orbit(w, rows[:d].conj().T, last)
            model = rows[:d] @ xs
            x = np.sqrt(_frobenius_squares(xs))
            basis = np.stack((outer, inner.conj().T))
            sizes, up = _frobenius_squares(basis), 1 + _rounding(2 * r * r + 16)
            a_u, a_v = np.sqrt(
                _frobenius_squares(basis.conj().transpose(0, 2, 1) @ basis - np.eye(k))
            ) * (1 + u) + c * sizes
            delta = ((a_u + a_v) / 2 + c * np.sqrt(sizes[0] * sizes[1])) * up
            nu, err, z = [1 + 2 * delta + u], 0.0, w
            z_norm = w_norm = np.sqrt(_frobenius_squares(w))
            for _ in range(1, int(last).bit_length()):
                err = ((2 * nu[-1] + err) * err + c * z_norm * z_norm) * up
                z = z @ z
                z_norm = np.sqrt(_frobenius_squares(z))
                nu.append(min(nu[-1] ** 2, z_norm + err) * up)
            exps = np.arange(last + 1)
            bounds = np.where((exps[:, None] >> np.arange(len(nu))) & 1, nu, 1.0).prod(axis=1)
            sums = np.cumsum(bounds)
            drift = np.minimum(1.0, exps[1:] * delta) @ np.sqrt(_frobenius_squares(model[1:]))
            propagated = x[:-1] @ sums[-2::-1]
            tail = 2 * c * x[0] * (x[0] + 2 * x[1:].sum() + 2 * w_norm * propagated) + 2 * drift
            grow = _rounding(2 * (last + r * d + d * d + len(nu)) + 32)
        else:
            if r:
                rotated = _TURN * w
                q = np.linalg.eigh(rotated + rotated.conj().T)[1]
                lam = (q.conj() * (w @ q)).sum(axis=0)
                lam /= np.abs(lam)
                g = rows[:d] @ q
            width = -(-(last + 1) // _BLOCK) * _BLOCK
            raw = _powers(lam, width - 1)
            raw /= np.abs(raw)
            table = np.concatenate((np.ones((r, 1)), raw), axis=1)
            weights = (g[:, None, :] * g.conj()[None, :, :]).reshape(d * d, r)
            blocks = table.T.reshape(width // _BLOCK, _BLOCK, r) @ weights.T
            model = blocks.reshape(width, d, d)[: last + 1]
            powers = table[:, : last + 1]
        # T_N's first block row is (H_0, M_1 .. M_N) exactly (``assemble``)
        defects = np.sqrt(
            _frobenius_squares(dense[:d].reshape(d, n, d).transpose(1, 0, 2) - model[:n])
        )
        model0_norm, m0_norm = np.sqrt(
            _frobenius_squares(np.array([model[0], seq.coefficients[0]]))
        )
        beta = (defects[0] + 2 * defects[1:].sum()) * (1 + u) + u * m0_norm
        if k < r:
            beta = beta + tail
        else:
            squares = powers.real**2 + powers.imag**2
            moduli = (g.real**2 + g.imag**2).sum(axis=0) @ (
                (1 + c) * (np.abs(squares - 1) + 2 * u * squares) + c
            )
            # ||G||^2 times the phase bounds f_1 + ... + f_L
            phases = (model0_norm + moduli[0]) * (0.75 * u * last * (last + 1) - u * last)
            beta = beta + moduli[0] + 2 * (moduli[1:].sum() + phases)
            grow = _rounding(last + r + 2 * d * d + 16)
    model[:n] = seq.coefficients
    return model, beta * (1 + grow)


def solve_cf(seq, horizon, eps=1e-8, tol=1e-9, radius=0.9):
    """Solve the truncated-coefficient interpolation problem.

    Up to ``horizon`` = N this is ``certified_series``: one shifted
    Cholesky factorisation of T_N, O(N^3 d^3).  Beyond it the data are
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
