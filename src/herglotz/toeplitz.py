"""Hermitian block Toeplitz matrices built from operator coefficients.

Layout convention, fixed once for the whole library and for the file
format: for a coefficient list M_0 .. M_N the assembled matrix carries
block (i, j) = M_{j-i} for j > i, the adjoint M_{i-j}* for i > j, and the
Hermitian part (M_0 + M_0*)/2 on the diagonal.  The skew part of M_0 is
never lost silently; it is recovered by ``hermitian_split`` and carried
separately through the reduction machinery.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, NotPsdError, SingularBlockError
from .linalg import (
    _MACHINE_EPS,
    _check_tol,
    _hermitian,
    _integer,
    _orbit,
    _powers,
    _procrustes,
    psd_report,
)

__all__ = [
    "CoefficientSequence",
    "BlockToeplitz",
    "LevelReport",
    "assemble",
    "reverse_blocks",
    "reversal_conjugate",
    "positivity_profile",
    "cross_block_bound_check",
]

# e^{i}, the turn of a unitary W whose Hermitian part gives W's eigenvectors
_TURN = np.exp(1j)
# the number of coefficients each block of the determinate product forms
_BLOCK = 16


@dataclass(frozen=True, eq=False)
class CoefficientSequence:
    """Operator coefficients M_0 .. M_N, square complex blocks of equal size.

    ``coefficients`` is stored as a read-only complex array of shape
    (N + 1, d, d); the sequence is immutable after construction.  Every
    entry must be finite: no eigenvalue decides the positivity of data with
    a non-finite entry, so construction rejects it with ``NotPsdError``
    ("coefficient data has a non-finite entry"), and every check downstream
    sees finite data.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=complex)
        if coeffs.ndim == 2:
            coeffs = coeffs[None, :, :]
        if coeffs.ndim != 3 or coeffs.shape[1] != coeffs.shape[2]:
            raise DimensionError(
                f"coefficients must be a stack of square blocks, got shape {coeffs.shape}"
            )
        if coeffs.shape[0] < 1 or coeffs.shape[1] < 1:
            raise DimensionError("need at least one coefficient block of dimension >= 1")
        if not np.isfinite(coeffs).all():
            raise NotPsdError("coefficient data has a non-finite entry")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_scalars(cls, values):
        """Build a block-dimension-1 sequence from a list of scalars."""
        arr = np.asarray(values, dtype=complex)
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionError("expected a non-empty 1-d list of scalars")
        return cls(arr.reshape(-1, 1, 1))

    @property
    def block_dim(self):
        return self.coefficients.shape[1]

    @property
    def order(self):
        """Highest coefficient index N."""
        return self.coefficients.shape[0] - 1

    def __len__(self):
        return self.coefficients.shape[0]

    def truncated(self, n):
        """Sequence of the first n + 1 coefficients M_0 .. M_n.

        Raises ``TypeError`` if ``n`` is not an integer (numpy integers
        are) and ``DimensionError`` if it is not in 0..N.
        """
        n = _integer(n, "n")
        if not 0 <= n <= self.order:
            raise DimensionError(f"truncation level {n} out of range 0..{self.order}")
        return CoefficientSequence(self.coefficients[: n + 1])


@dataclass(frozen=True, eq=False)
class BlockToeplitz:
    """Assembled Hermitian block Toeplitz matrix with its block geometry."""

    block_dim: int
    num_blocks: int
    dense: np.ndarray


def assemble(seq):
    """Assemble the Hermitian block Toeplitz matrix of a coefficient sequence.

    The result is exactly Hermitian: lower blocks are the stored conjugate
    transposes of their upper counterparts and the diagonal is the
    Hermitian part of M_0.
    """
    coeffs = seq.coefficients
    d = seq.block_dim
    n = len(seq)
    # one d x (2n - 1)d row of blocks (M_{n-1}* .. M_1*, H_0, M_1 .. M_{n-1});
    # block row i of the matrix is its window starting at block n - 1 - i.
    # Lower blocks are the stored conjugate transposes of the upper ones, so
    # the result is exactly Hermitian.
    row = np.empty((d, 2 * n - 1, d), dtype=complex)
    row[:, n - 1] = _hermitian(coeffs[0])
    row[:, n:] = coeffs[1:].transpose(1, 0, 2)
    row[:, : n - 1] = coeffs[:0:-1].transpose(2, 0, 1).conj()
    dense = np.empty((n * d, n * d), dtype=complex)
    windows = _windows(row, (n - 1) * d, (n, d, n * d), (-d, (2 * n - 1) * d, 1))
    dense.reshape(n, d, n * d)[:] = windows
    return BlockToeplitz(block_dim=d, num_blocks=n, dense=dense)


def _windows(base, offset, shape, strides):
    # the view of the C-contiguous array ``base`` that starts at its flat
    # element ``offset`` and steps ``strides`` elements along each axis; the
    # caller keeps every index inside ``base``.  The block windows of a row
    # are such views (about a microsecond, where ``sliding_window_view``
    # validates for tens of microseconds)
    item = base.itemsize
    return np.ndarray(shape, base.dtype, base, offset * item, [k * item for k in strides])


def reverse_blocks(dense, block_dim):
    """Conjugate a matrix by the block anti-diagonal permutation.

    Block (i, j) of the output equals block (m-1-i, m-1-j) of the input,
    where m is the number of blocks per side.  Works on any square matrix
    whose size is a multiple of ``block_dim``; a ``block_dim`` that is not
    an integer (numpy integers are) raises ``TypeError`` first.
    """
    block_dim = _integer(block_dim, "block_dim")
    dense = np.asarray(dense)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {dense.shape}")
    n = dense.shape[0]
    if block_dim < 1 or n % block_dim:
        raise DimensionError(f"size {n} is not a multiple of block dimension {block_dim}")
    m = n // block_dim
    blocks = dense.reshape(m, block_dim, m, block_dim)[::-1, :, ::-1]
    # a copy in the new order, never a view of ``dense``
    return np.array(blocks).reshape(n, n)


def reversal_conjugate(bt):
    """Block-reverse a BlockToeplitz matrix.

    The output is the conjugation of the input by the block anti-diagonal
    permutation, hence has the identical eigenvalue multiset.  It is again
    block Toeplitz, with coefficient blocks replaced by their adjoints.
    """
    return BlockToeplitz(
        block_dim=bt.block_dim,
        num_blocks=bt.num_blocks,
        dense=reverse_blocks(bt.dense, bt.block_dim),
    )


@dataclass(frozen=True)
class LevelReport:
    """Positivity verdict of one truncation level of ``positivity_profile``.

    The level's computed smallest eigenvalue lies in ``[lower, upper]``;
    ``lower == upper`` on a level whose eigenvalues were computed, where
    the report is that of ``psd_report``.  ``is_psd`` and
    ``is_strictly_positive`` are the verdicts ``psd_report`` gives for the
    level (``min_eigenvalue >= -tolerance_used`` and
    ``> tolerance_used``), decided by the bracket.  Where the atom rung of
    ``positivity_profile`` proves the data PSD from a leading block T_s,
    every level past its determinate level s carries the bracket
    ``[-tolerance_used, lambda_s + margin]``, which proves it PSD and not
    strictly positive.
    """

    lower: float
    upper: float
    is_psd: bool
    is_strictly_positive: bool
    tolerance_used: float


def positivity_profile(seq, tol=1e-9):
    """Positivity report for every truncation level n = 0 .. N.

    Level n is the leading (n + 1) d x (n + 1) d principal submatrix T_n of
    the assembled T_N, entrywise the assembly of ``seq.truncated(n)``.  By
    Cauchy interlacing the exact lambda_min(T_n) is non-increasing in n, and
    at most lambda_{(N - n) d + 1}(T_N), the eigenvalue of T_N that
    (N - n) d others lie below.  ``eigvalsh`` is backward stable: the k-th
    eigenvalue it computes for a Hermitian matrix A of size m lies within
    2 m u ||A||_2 of the exact k-th one (u the machine epsilon; Weyl's
    inequality; the observed error is far smaller), and ||T_n||_2 <=
    ||T_N||_2.  So a decomposed level i bounds every later level's computed
    lambda_min from above by lambda_i + margin, and every earlier one's from
    below by lambda_i - margin, with margin = 4 m u ||T_N||_2 and
    m = (N + 1) d.

    The spectrum of T_N.  Between two decomposed levels i < j every level
    n's computed lambda_min lies in

        [lambda_j - margin, min(lambda_i + margin, c_n)],
        c_n = max(eigs[(N - n) d] + margin, -tol)

    with ``eigs`` the computed spectrum of T_N (ascending) and ||T_N||_2 its
    largest magnitude.  The ceiling c_n from the spectrum is never below
    ``-tol``, so a bracket fails a level only after a decomposed level
    fails.  Levels 0 and N are decomposed.  Between two decomposed levels
    the upper ends do not increase with n, so the levels whose bracket
    leaves ``is_psd`` or ``is_strictly_positive`` undecided come first; the
    interval is split at its midpoint, or at the midpoint of those levels
    where its own midpoint is decided.  Where the verdicts change once,
    O(log N) levels are decomposed.  PSD data of rank r make every level
    n >= r / d singular; where ``tol`` is well above the margin, those
    levels are decided from the spectrum of T_N alone.

    One rung runs first.  The atom rung (``_atom_level``) takes determinate
    data, the Caratheodory-Fejer case: it searches the leading blocks T_1,
    T_2, T_4, ... while 8 (s + 1) <= N + 1 for the first whose rank stops
    growing (rank T_s = rank T_{s-1} = r), continues M_0 .. M_s to N by the
    unique PSD continuation, the r-atom measure of the central extension,
    and passes where that continuation's certificate beta plus twice the
    sum of the defects ||M_j - C_j||_F (j > s) stays below tol by the
    rounding margin 2 (m + 1) u nu, nu >= ||T_N||_2.  Then every level's
    computed lambda_min is at least -tol, so every level is PSD.  It costs
    O(s^3 d^3 + N r d^2) in place of the O(N^3 d^3) of the spectrum of T_N,
    and assembles nothing of T_N's size.  Where it does not pass (data that
    are not determinate at a searched level, or whose later coefficients
    leave the continuation), its search costs one ``eigh`` of each searched
    T_s, sizes (s + 1) d up to (N + 1) d / 8, plus an SVD of size r where
    T_s has rank r <= s d (no more than its past block's columns, so that
    the level may be determinate), plus the continuation where a level is
    determinate; below N = 15, and where ``tol`` is below the margin, it
    searches nothing.  That extra work, measured on full-rank data at
    N = 64 (d = 1 .. 4, one OpenBLAS thread, a 2-core x86-64 host, best of
    50), is 0.10 .. 0.21 ms; at N = 256 it is at most 2 ms.

    Where the rung passes, levels 0 .. s are the profile of
    ``seq.truncated(s)`` read from the spectrum of T_s as above, and every
    later level carries the bracket [-tol, lambda_s + margin], with the
    margin taken from a bound on ||T_N||_2 (its block row sums): by
    interlacing, no later level's computed lambda_min is above it.  That
    bracket proves the level PSD and not strictly positive; it is only as
    tight as its two ends, not an estimate of the level's lambda_min.

    Where the rung does not pass, or lambda_s + margin > tol (which only
    rounding allows), the profile is read from the spectrum of T_N, bitwise
    as without the rung, at the cost of the rung's search (and, in the last
    case, the profile of T_s).  The profile runs no Cholesky factorisation.
    Either way a decomposed level's report is bitwise that of ``psd_report``
    of its own assembly; every verdict equals it and every bracket contains
    its ``min_eigenvalue``.  Level N is decomposed exactly where the profile
    is read from the spectrum of T_N.

    Raises
    ------
    ValueError
        If ``tol`` is negative, NaN or infinite.
    """
    _check_tol(tol)
    top, d = seq.order, seq.block_dim
    stop, block = _atom_level(seq, tol) or (top, None)
    if stop < top:
        reports = _spectrum_profile(seq.truncated(stop), tol, block)
        cap = reports[stop].upper + float(
            4 * len(seq) * d * _MACHINE_EPS * _norm_bound(seq.coefficients)
        )
        if cap <= tol:
            return reports + [_bracket(-tol, cap, tol)] * (top - stop)
    return _spectrum_profile(seq, tol)


def _spectrum_profile(seq, tol, dense=None):
    # the reports of ``positivity_profile`` read from the spectrum of T_N:
    # the profile of T_N where the atom rung does not decide it and of the
    # rung's level T_s where it does, and the reports of the eigenvalue check
    # (``_certified_data``).  ``dense`` is T_N where the caller has it
    if dense is None:
        dense = assemble(seq).dense
    return _interlaced_reports(dense, seq.block_dim, tol, np.linalg.eigvalsh(dense))


def _check_data(seq, tol):
    # the check of ``certified_series``: the atom rung (``_atom_level``),
    # which decides determinate data from a leading block T_s in
    # O(s^3 d^3 + N r d^2), then the Cholesky rung on T_N, and where both
    # fail ``_certified_data`` on T_N assembled afresh.  Both rungs prove
    # passes only, so verdicts and messages are the eigenvalue check's
    _check_tol(tol)
    if _atom_level(seq, tol) is None and not _clearing_pivots(seq, tol):
        _certified_data(seq, tol)


def _atom_level(seq, tol):
    # The atom rung: the level s from which it proves every level's computed
    # lambda_min >= -tol, the claim of ``_clearing_pivots(seq, tol)``, with
    # its assembled T_s, or None where it proves nothing.
    #
    # Determinate data (the Caratheodory-Fejer case).  Where the rank of the
    # data stops growing at a level s (rank T_s = rank T_{s-1} = r, the k = r
    # of ``_central_extension``), T_s has exactly one PSD continuation: the
    # measure with r atoms that the determinate branch of the central
    # extension builds, with its certificate beta.  So T_N is PSD only where
    # M_{s+1} .. M_N are that continuation C_{s+1} .. C_N, and where they are
    # up to rounding the rung proves it from T_s alone.
    #
    # Search.  s runs over 1, 2, 4, ... while 8 (s + 1) <= N + 1, so T_s is
    # at most an eighth of T_N across; each s takes one ``eigh`` of T_s and
    # its minimal factor, and the first s whose factor is determinate is the
    # only level the rung tries.  So it costs O(s^3 d^3 + N r d^2) in place
    # of the O(N^3 d^3) of a factorisation of T_N.  The factor's rank k
    # (``_minimal_factor``) is that of an r x r product through the s d
    # columns of its past block, so k <= s d: where more than s d
    # eigenvalues of T_s pass the margin, k < r, and the factor and its SVD
    # are skipped.
    #
    # Proof.  The continuation T_N' of (M_0 .. M_s, C_{s+1} .. C_N) has
    # lambda_min(T_N') >= -beta.  T_N - T_N' is the block Toeplitz matrix of
    # the defects E_j = M_j - C_j (j > s; the blocks up to s agree), whose
    # 2-norm is at most its block row sum 2 sum ||E_j||_2 <= 2 sum ||E_j||_F.
    # So lambda_min(T_N) >= -beta - 2 sum ||E_j||_F (Weyl), and where that is
    # above -tol + margin (``_clearing_margin``) every level's computed
    # lambda_min is at least -tol, by the convention of ``_clearing_pivots``.
    # Rounding (u machine eps, twice the unit roundoff): each real part of
    # fl(E_j) is exact to a relative u / 2, so ||E_j||_F <= (1 + u)
    # ||fl(E_j)||_F; its squared norm sums 2 d^2 squares
    # (``_frobenius_squares``) and its root rounds once; the N - s norms are
    # summed, and beta, their doubled sum and the margin added and grown.  So
    # every term passes through at most K = N - s + 2 d^2 + 8 roundings of
    # nonnegative terms, the sum grown by 1 + gamma_K is at least the exact
    # beta + 2 sum ||E_j||_F + margin, and the rung passes where it is below
    # tol.  Data whose margin is not below tol cannot pass and cost nothing;
    # data near the float maximum overflow to an infinite or NaN bound,
    # which fails
    top, d = seq.order, seq.block_dim
    margin = _clearing_margin(seq)
    s = 1
    while 8 * (s + 1) <= top + 1 and margin < tol:
        head = seq.truncated(s)
        dense = assemble(head).dense
        eigs, vecs = np.linalg.eigh(dense)
        rank_margin = _interlacing_margin(eigs)
        if np.count_nonzero(eigs > rank_margin) <= s * d:
            factor = _minimal_factor(eigs, vecs, rank_margin, d)
            if factor[2].shape[1] == factor[1]:
                coeffs, beta = _central_extension(head, dense, factor, top - s)
                with np.errstate(over="ignore", invalid="ignore"):
                    defects = np.sqrt(
                        _frobenius_squares(seq.coefficients[s + 1 :] - coeffs[s + 1 :])
                    )
                    growth = 1 + _rounding(top - s + 2 * d * d + 8)
                    bound = (beta + 2 * defects.sum() + margin) * growth
                return (s, dense) if bound < tol else None
        s *= 2
    return None


def _clearing_pivots(seq, bound):
    # Whether one shifted Cholesky factorisation of T_N proves every level's
    # computed lambda_min >= -bound: the rung of the data check and of the
    # check of an ``extend`` output.  By interlacing and the eigvalsh
    # convention of ``positivity_profile``, every level's computed lambda_min
    # is at least lambda_min(T_N) - 2 m u ||T_N||_2 (m = (N + 1) d, u machine
    # eps), and ||T_N||_2 <= nu (``_norm_bound``).  So the factorisation
    # proving lambda_min(T_N) > -bound + 2 (m + 1) u nu (the extra 2 u nu
    # covers the rounding of that margin, ``_clearing_margin``) is enough.
    # Data too large for the margin to be finite get no certificate
    return _shifted_pivots(assemble(seq).dense, -bound, _clearing_margin(seq))


def _clearing_margin(seq):
    # 2 (m + 1) u nu for T_N of size m = (N + 1) d: the rounding margin by
    # which a rung of the data check proves lambda_min(T_N) above -tol
    with np.errstate(over="ignore"):
        return 2 * (len(seq) * seq.block_dim + 1) * _MACHINE_EPS * _norm_bound(seq.coefficients)


def _certified_data(seq, tol, dense=None):
    # the eigenvalue check of the data: it decides the data where the
    # rungs of ``_check_data`` do not, and for the extension where its
    # ``eigh`` of T_N leaves the verdict open.  The data are refused at the
    # first level the profile read from the spectrum of T_N fails, so a
    # refusal is the ``check`` command's first failing level
    # (``positivity_profile`` reads that spectrum wherever the atom rung
    # fails, as it does on data that fail); that level is a decomposed one
    # (a bracket fails a level only when the decomposed level before it
    # fails), named with its computed lambda_min.  ``dense`` is T_N where
    # the caller has it
    for n, report in enumerate(_spectrum_profile(seq, tol, dense)):
        if not report.is_psd:
            raise NotPsdError(
                f"truncation level {n} is not PSD (min eigenvalue {report.lower:.3e})"
            )


def _decomposed(seq, tol):
    # T_N, its eigenpairs from one ``eigh`` and their interlacing margin,
    # after the data check, with the verdicts and messages of the eigenvalue
    # check behind ``certified_series`` (``_certified_data``); every entry
    # point that reads the minimal factor of T_N takes its data here.
    # ``eigh`` (zheevd with vectors) is backward stable under the convention
    # of ``positivity_profile``: each eigenvalue it computes for T_N lies
    # within 2 m u ||T_N||_2 of an exact one (m = (N + 1) d, u machine eps),
    # half the interlacing margin.  So where the computed eigs[0] >= margin -
    # tol, the exact lambda_min(T_N) >= -tol + margin / 2.  By interlacing
    # every exact lambda_min(T_n) is at least that, and eigvalsh computes it
    # within margin / 2 (||T_n||_2 <= ||T_N||_2): every level
    # ``_certified_data`` decomposes passes, and its brackets fail a level
    # only after a decomposed one fails, so it would pass every level.
    # Otherwise ``_certified_data`` decides, unchanged, on the same T_N
    # (``eigh`` leaves its input intact).  Data that pass but whose spectrum passes the float maximum
    # are refused here, for every entry point, before any caller reads a
    # rank from the (infinite) margin or a threshold from the top.
    _check_tol(tol)
    dense = assemble(seq).dense
    eigs, vecs = np.linalg.eigh(dense)
    margin = _interlacing_margin(eigs)
    if not eigs[0] >= margin - tol:
        _certified_data(seq, tol, dense)
    if not np.isfinite(eigs[-1]):
        raise SingularBlockError(f"the spectrum of T_{seq.order} passes the float maximum")
    return dense, eigs, vecs, margin


def _minimal_factor(eigs, vecs, margin, block_dim):
    # The minimal factor of T_N from its eigenpairs (``_decomposed``, or
    # those of a leading block in the atom rung's search), under the one
    # rank rule of the library's factor of T_N: the r eigenvalues
    # above the interlacing margin, which is relative to ||T_N||_2.  Returns
    # the factor's rows F* (the top r eigenvectors scaled by the roots of
    # their eigenvalues, so T_N ~ F* F with r x d column blocks F_j), r, and
    # the two factors (outer, inner) of the partial isometry W = outer inner
    # with F_j = W^j F_0, the Procrustes solution for Q P* of the future and
    # past blocks, its rank k counted above the same margin (derived in
    # ``_central_extension``; k = r is determinate data).  Data near the
    # float maximum may overflow Q P*, which is left to the caller's checks
    r = np.count_nonzero(eigs > margin)
    # ``eigh`` returns the eigenvalues ascending: the top r are the last
    rows = vecs[:, len(eigs) - r :] * np.sqrt(eigs[len(eigs) - r :])
    with np.errstate(over="ignore", invalid="ignore"):
        outer, inner = _procrustes(rows[block_dim:].conj().T @ rows[:-block_dim], margin)
    return rows, r, outer, inner


def _central_extension(seq, dense, factor, steps):
    # The central extension M_0 .. M_L (L = N + steps) of the data from their
    # minimal factor, with the bound beta of its certificate,
    # lambda_min(T_L) >= -beta: the extension of ``extension.extend`` and the
    # continuation of the atom rung (``_atom_level``).  ``dense`` is T_N and
    # ``factor`` its minimal factor (``_minimal_factor``).
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
    # the powers of ``linalg._powers``.  The product is formed in row
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
    # computed W^: the orbit of F_0 under W^ (``linalg._orbit``, the running
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
    # eigenvalues (``_minimal_factor``, which also gives W's two
    # factors), so Q P* and F_0* = V_r[:d] need no adjoint of F; each
    # array's squared moduli are summed in its own layout
    # (``_frobenius_squares``): the defects as block columns of T_N's first
    # block row, the model's M_0 and the data's as one stack of blocks.
    n, d = len(seq), seq.block_dim
    last = n - 1 + steps
    rows, r, outer, inner = factor
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


def _rounding(k):
    # gamma_k = k u / (1 - k u) with u machine eps, twice the unit roundoff,
    # which covers complex arithmetic (Higham, Accuracy and Stability, 3.6)
    return k * _MACHINE_EPS / (1 - k * _MACHINE_EPS)


def _frobenius_squares(blocks):
    # squared Frobenius norms of a stack of blocks, over its last two axes.
    # Entries past about 1.3e154 square to inf, which every bound built on
    # these reads as no certificate, so the overflow is no fault
    with np.errstate(over="ignore"):
        return (blocks.real**2 + blocks.imag**2).sum(axis=(-2, -1))


def _norm_bound(coeffs):
    # nu >= ||T_L||_2 for the Toeplitz matrix of M_0 .. M_L: its block row
    # sums, ||H_0||_2 + 2 sum ||M_k||_2, bounded through Frobenius norms
    # (||H_0||_F <= ||M_0||_F) and grown by the relative rounding of their
    # computation: each is a sum of 2 d^2 squares, then L + 1 are added
    d = coeffs.shape[1]
    norms = np.sqrt(_frobenius_squares(coeffs))
    return (norms[0] + 2 * norms[1:].sum()) * (1 + _rounding(len(coeffs) + 2 * d * d + 4))


def _shifted_pivots(dense, base, margin):
    # Whether one Cholesky factorisation R* R of ``dense`` shifted down
    # succeeds.  It succeeds only where it proves that the exact lambda_min
    # of the Hermitian m x m matrix A = ``dense`` exceeds base + margin (the
    # exact sum of the two floats, margin >= 0).  A's diagonal is shifted
    # down in place, so ``dense`` is spent:
    #
    #     B = fl(A - s I),   s = base + margin + 4 gamma W,
    #     W = t + m (|base| + margin),   gamma = gamma_{m+1} (``_rounding``),
    #
    # t the computed sum of |A_ii|, u machine eps (twice the unit roundoff,
    # which covers complex arithmetic); as in Higham's bounds, no underflow.
    #
    # Proof.  B = A - s I + D with D diagonal, |D_ii| <= u |A_ii - s|.  If the
    # factorisation of B succeeds, R* R = B + E with |E| <= gamma |R*| |R|
    # entrywise (Higham, Accuracy and Stability, Thm 10.3), so ||E||_2 <=
    # gamma ||R||_F^2, and ||R||_F^2 = tr(B + E) <= tr B + gamma ||R||_F^2
    # gives ||E||_2 <= gamma tr B / (1 - gamma).  Every pivot was positive,
    # so A_ii > s for all i, and ||D||_2 and tr B / (1 + u) are at most
    # sum (A_ii - s) <= sum |A_ii| + m |s|.  B + E = R* R is PSD, so
    #
    #     lambda_min(A) >= s - ||D||_2 - ||E||_2
    #                   >= s - (gamma + u) (1 + 3 gamma) (sum |A_ii| + m |s|).
    #
    # Here sum |A_ii| <= t (1 + gamma) (a sum of m nonnegative terms), the
    # computed s is at least base + margin + 4 gamma W - 2 u W and |s| at most
    # |base| + margin + 5 gamma W (its own few roundings), and u <= gamma / 2.
    # So the bound exceeds base + margin + gamma W [3 - 3/2 (1 + 3 gamma)
    # (1 + gamma) (1 + 5 m gamma)], which is > base + margin when W > 0 and
    # m gamma < 1/40 (m up to 10^7).  W = 0 leaves a zero diagonal, and a W
    # past the float maximum an infinite one, whose factorisations fail: no
    # certificate, so that overflow is no fault.
    m = dense.shape[0]
    gamma = _rounding(m + 1)
    diagonal = dense.reshape(-1)[:: m + 1]
    with np.errstate(over="ignore"):
        weight = np.abs(diagonal.real).sum() + m * (abs(base) + margin)
        diagonal -= base + (margin + 4 * gamma * weight)
    try:
        np.linalg.cholesky(dense)
    except np.linalg.LinAlgError:
        return False
    return True


def _interlacing_margin(eigs):
    # 4 m u ||A||_2 for a Hermitian A of size m with computed eigenvalues
    # ``eigs`` (ascending): each eigenvalue eigvalsh or eigh computes for A,
    # or for a leading block of A, lies within half of it of an exact one
    return float(4 * len(eigs) * _MACHINE_EPS * max(-eigs[0], eigs[-1]))


def _bracket(lower, upper, tol):
    # the report of a level whose computed lambda_min lies in [lower, upper];
    # callers pass brackets that decide both verdicts
    return LevelReport(lower, upper, lower >= -tol, lower > tol, tol)


def _level_report(dense, block_dim, n, tol):
    # the report of level n decomposed, from the assembly of a larger level:
    # that of psd_report
    k = (n + 1) * block_dim
    min_eig = float(np.linalg.eigvalsh(dense[:k, :k])[0])
    return _bracket(min_eig, min_eig, tol)


def _decides(lower, upper, tol):
    # whether the bracket [lower, upper] decides both verdicts of a level
    return (lower >= -tol or upper < -tol) and (lower > tol or upper <= tol)


def _interlaced_reports(dense, block_dim, tol, eigs):
    # the reports of ``positivity_profile`` from T_N and its eigenvalues
    # ``eigs``.  ``ceiling[n]`` bounds level n's computed lambda_min from
    # above by eigs[(N - n) d], and is never below -tol.  A pending interval
    # (i, j, lower) holds the levels between the decomposed levels i and j,
    # all bounded below by ``lower``.  Their upper ends, min(ceiling[n],
    # lambda_i + margin), do not increase with n, so the levels their
    # brackets decide are a trailing run; the interval is split at its
    # midpoint, or, where that falls in the run, at the midpoint of the rest
    top = len(eigs) // block_dim - 1
    margin = _interlacing_margin(eigs)
    ceiling = np.maximum(eigs[::block_dim][::-1] + margin, -tol).tolist()
    reports = [None] * (top + 1)
    reports[top] = _bracket(float(eigs[0]), float(eigs[0]), tol)
    if top:
        reports[0] = _level_report(dense, block_dim, 0, tol)
    pending = [(0, top, reports[top].lower - margin)]
    while pending:
        i, j, lower = pending.pop()
        cap = reports[i].upper + margin
        k = j
        while k - i > 1 and _decides(lower, min(ceiling[k - 1], cap), tol):
            k -= 1
            reports[k] = _bracket(lower, min(ceiling[k], cap), tol)
        if k - i > 1:
            if (i + j) // 2 >= k:
                j = k
            mid = (i + j) // 2
            reports[mid] = _level_report(dense, block_dim, mid, tol)
            pending += [(i, mid, reports[mid].lower - margin), (mid, j, lower)]
    return reports


def cross_block_bound_check(bt, samples, tol=1e-9):
    """Cauchy-Schwarz slacks for off-diagonal blocks of a PSD block matrix.

    For each sample ``((l, j), v, w)`` returns

        slack = <A_ll v, v> <A_jj w, w> - |<A_lj w, v>|^2

    which is nonnegative for PSD input because the compressed 2 x 2 matrix
    [[<A_ll v,v>, <A_lj w,v>], [conj, <A_jj w,w>]] is PSD and so is its
    determinant.  Every sample is checked before the matrix is decomposed
    and before any slack is computed.

    Raises
    ------
    TypeError
        If a sample's block index is not an integer (numpy integers are).
    ValueError
        If ``tol`` is negative, NaN or infinite (``psd_report``), or a
        sample vector has a non-finite entry.
    NotPsdError
        If ``bt`` is not PSD within ``tol`` (contract violation).
    DimensionError
        If a sample's block indices are out of range or a sample vector
        does not have d entries.
    """
    d = bt.block_dim
    m = bt.num_blocks
    checked = []
    for (l, j), v, w in samples:
        l, j = _integer(l, "block index"), _integer(j, "block index")
        if not (0 <= l < m and 0 <= j < m):
            raise DimensionError(f"block indices ({l}, {j}) out of range 0..{m - 1}")
        v, w = np.asarray(v, dtype=complex), np.asarray(w, dtype=complex)
        if v.size != d or w.size != d:
            raise DimensionError(
                f"sample vectors must have d = {d} entries, got {v.size} and {w.size}"
            )
        if not (np.isfinite(v).all() and np.isfinite(w).all()):
            raise ValueError("sample vectors must be finite")
        checked.append((l, j, v.reshape(d), w.reshape(d)))
    report = psd_report(bt.dense, tol)
    if not report.is_psd:
        raise NotPsdError(
            f"block Toeplitz matrix is not PSD: min eigenvalue {report.min_eigenvalue:.3e}"
        )
    slacks = []
    for l, j, v, w in checked:
        a_ll = bt.dense[l * d : (l + 1) * d, l * d : (l + 1) * d]
        a_jj = bt.dense[j * d : (j + 1) * d, j * d : (j + 1) * d]
        a_lj = bt.dense[l * d : (l + 1) * d, j * d : (j + 1) * d]
        diag_l = float(np.real(v.conj() @ a_ll @ v))
        diag_j = float(np.real(w.conj() @ a_jj @ w))
        cross = complex(v.conj() @ a_lj @ w)
        slacks.append(diag_l * diag_j - abs(cross) ** 2)
    return slacks
