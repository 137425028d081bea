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

from .exceptions import DimensionError, NotPsdError
from .linalg import _MACHINE_EPS, _check_tol, hermitian_split, psd_report

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
        """Sequence of the first n + 1 coefficients M_0 .. M_n."""
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
    row[:, n - 1] = hermitian_split(coeffs[0])[0]
    row[:, n:] = coeffs[1:].transpose(1, 0, 2)
    row[:, : n - 1] = coeffs[:0:-1].conj().transpose(2, 0, 1)
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
    whose size is a multiple of ``block_dim``.
    """
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
    ``> tolerance_used``), decided by the bracket.
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
    Cauchy interlacing the exact lambda_min(T_n) is non-increasing in n.
    ``eigvalsh`` is backward stable: each eigenvalue it computes for a
    Hermitian matrix A of size m lies within 2 m u ||A||_2 of an exact one
    (u the machine epsilon; the observed error is far smaller), and
    ||T_n||_2 <= ||T_N||_2.  So between two decomposed levels i < j every
    level's computed lambda_min lies in

        [lambda_j - margin, lambda_i + margin],   margin = 4 m u ||T_N||_2

    with m = (N + 1) d and ||T_N||_2 the largest computed eigenvalue
    magnitude.  Levels 0 and N are decomposed, and an interval is bisected
    only where that bracket leaves a level's ``is_psd`` or
    ``is_strictly_positive`` undecided.  A decomposed level's report is
    bitwise that of ``psd_report`` of its own assembly; every verdict
    equals it, and every bracket contains its ``min_eigenvalue``.  Where
    the verdicts change once, O(log N) levels are decomposed.

    Raises
    ------
    ValueError
        If ``tol`` is negative, NaN or infinite.
    """
    _check_tol(tol)
    dense = assemble(seq).dense
    return _interlaced_reports(dense, seq.block_dim, tol, np.linalg.eigvalsh(dense))


def _check_data(seq, tol):
    # the check of ``certified_series``.  By interlacing and the eigvalsh
    # convention of ``positivity_profile``, every level's computed lambda_min
    # is at least lambda_min(T_N) - 2 m u ||T_N||_2 (m = (N + 1) d, u machine
    # eps), and ||T_N||_2 <= nu (``_norm_bound``).  So once the shifted
    # Cholesky factorisation proves lambda_min(T_N) > -tol + 2 (m + 1) u nu
    # (the extra 2 u nu covers the rounding of that margin), each level's
    # computed lambda_min is >= -tol and ``_certified_data`` would pass every
    # level.  Otherwise ``_certified_data`` decides, on T_N assembled afresh;
    # data too large for the margin to be finite go there.
    _check_tol(tol)
    m = len(seq) * seq.block_dim
    with np.errstate(over="ignore"):
        margin = 2 * (m + 1) * _MACHINE_EPS * _norm_bound(seq.coefficients)
        if _cholesky_exceeds(assemble(seq).dense, -tol, margin):
            return
    _certified_data(seq, tol)


def _certified_data(seq, tol):
    # the eigenvalue check of the data: it decides the data where the
    # Cholesky factorisation of ``_check_data`` does not, and for the
    # extension where its ``eigh`` of T_N leaves the verdict open.  Unless
    # lambda_min(T_N) lies within the margin of -tol every level passes;
    # otherwise the levels are decided as ``positivity_profile`` decides
    # them, and the first failing level is a decomposed one (a bracket fails
    # a level only when the decomposed level before it fails), named with
    # its computed lambda_min
    dense = assemble(seq).dense
    eigs = np.linalg.eigvalsh(dense)
    if eigs[0] < _interlacing_margin(eigs) - tol:
        for n, report in enumerate(_interlaced_reports(dense, seq.block_dim, tol, eigs)):
            if not report.is_psd:
                raise NotPsdError(
                    f"truncation level {n} is not PSD (min eigenvalue {report.lower:.3e})"
                )


def _rounding(k):
    # gamma_k = k u / (1 - k u) with u machine eps, twice the unit roundoff,
    # which covers complex arithmetic (Higham, Accuracy and Stability, 3.6)
    return k * _MACHINE_EPS / (1 - k * _MACHINE_EPS)


def _frobenius_squares(blocks):
    # squared Frobenius norms of a stack of blocks, over its last two axes
    return (blocks.real**2 + blocks.imag**2).sum(axis=(-2, -1))


def _norm_bound(coeffs):
    # nu >= ||T_L||_2 for the Toeplitz matrix of M_0 .. M_L: its block row
    # sums, ||H_0||_2 + 2 sum ||M_k||_2, bounded through Frobenius norms
    # (||H_0||_F <= ||M_0||_F) and grown by the relative rounding of their
    # computation: each is a sum of 2 d^2 squares, then L + 1 are added
    d = coeffs.shape[1]
    norms = np.sqrt(_frobenius_squares(coeffs))
    return (norms[0] + 2 * norms[1:].sum()) * (1 + _rounding(len(coeffs) + 2 * d * d + 4))


def _cholesky_exceeds(dense, base, margin):
    # Whether one Cholesky factorisation proves that the exact lambda_min of
    # the Hermitian m x m matrix A = ``dense`` exceeds base + margin (the
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
    # m gamma < 1/40 (m up to 10^7).  W = 0 leaves a zero diagonal, whose
    # factorisation fails.
    m = dense.shape[0]
    gamma = _rounding(m + 1)
    diagonal = dense.reshape(-1)[:: m + 1]
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


def _interlaced_reports(dense, block_dim, tol, eigs):
    # the reports of ``positivity_profile`` from T_N and its eigenvalues
    # ``eigs``
    top = len(eigs) // block_dim - 1
    margin = _interlacing_margin(eigs)
    reports = [None] * (top + 1)
    reports[top] = _bracket(float(eigs[0]), float(eigs[0]), tol)
    if top:
        reports[0] = _level_report(dense, block_dim, 0, tol)
    pending = [(0, top)]
    while pending:
        i, j = pending.pop()
        if j - i < 2:
            continue
        lower, upper = reports[j].lower - margin, reports[i].upper + margin
        if (lower >= -tol or upper < -tol) and (lower > tol or upper <= tol):
            reports[i + 1 : j] = [_bracket(lower, upper, tol)] * (j - i - 1)
        else:
            mid = (i + j) // 2
            reports[mid] = _level_report(dense, block_dim, mid, tol)
            pending += [(i, mid), (mid, j)]
    return reports


def cross_block_bound_check(bt, samples, tol=1e-9):
    """Cauchy-Schwarz slacks for off-diagonal blocks of a PSD block matrix.

    For each sample ``((l, j), v, w)`` returns

        slack = <A_ll v, v> <A_jj w, w> - |<A_lj w, v>|^2

    which is nonnegative for PSD input because the compressed 2 x 2 matrix
    [[<A_ll v,v>, <A_lj w,v>], [conj, <A_jj w,w>]] is PSD and so is its
    determinant.

    Raises
    ------
    ValueError
        If ``tol`` is negative, NaN or infinite (``psd_report``).
    NotPsdError
        If ``bt`` is not PSD within ``tol`` (contract violation).
    """
    report = psd_report(bt.dense, tol)
    if not report.is_psd:
        raise NotPsdError(
            f"block Toeplitz matrix is not PSD: min eigenvalue {report.min_eigenvalue:.3e}"
        )
    d = bt.block_dim
    m = bt.num_blocks
    slacks = []
    for (l, j), v, w in samples:
        if not (0 <= l < m and 0 <= j < m):
            raise DimensionError(f"block indices ({l}, {j}) out of range 0..{m - 1}")
        v = np.asarray(v, dtype=complex).reshape(d)
        w = np.asarray(w, dtype=complex).reshape(d)
        a_ll = bt.dense[l * d : (l + 1) * d, l * d : (l + 1) * d]
        a_jj = bt.dense[j * d : (j + 1) * d, j * d : (j + 1) * d]
        a_lj = bt.dense[l * d : (l + 1) * d, j * d : (j + 1) * d]
        diag_l = float(np.real(v.conj() @ a_ll @ v))
        diag_j = float(np.real(w.conj() @ a_jj @ w))
        cross = complex(v.conj() @ a_lj @ w)
        slacks.append(diag_l * diag_j - abs(cross) ** 2)
    return slacks
