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
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import DimensionError, NotPsdError
from .linalg import _hermitian_part, hermitian_split, psd_report

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
    (N + 1, d, d); the sequence is immutable after construction.
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
    windows = sliding_window_view(row.reshape(d, (2 * n - 1) * d), n * d, axis=1)
    dense = np.empty((n * d, n * d), dtype=complex)
    dense.reshape(n, d, n * d)[:] = windows[:, (n - 1) * d :: -d].transpose(1, 0, 2)
    return BlockToeplitz(block_dim=d, num_blocks=n, dense=dense)


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
    idx = np.concatenate(
        [np.arange((m - 1 - i) * block_dim, (m - i) * block_dim) for i in range(m)]
    )
    return dense[np.ix_(idx, idx)]


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
    the full assembled matrix, entrywise the assembly of
    ``seq.truncated(n)``; the symmetry check and the Hermitian part are
    taken once, of the full matrix.  By Cauchy interlacing the exact
    lambda_min(T_n) is non-increasing in n, so the eigenvalues of a few
    levels bracket all the others.  Levels 0 and N are decomposed; between
    two decomposed levels i < j every level's computed lambda_min lies in

        [lambda_j - margin, lambda_i + margin],   margin = 4 m u ||T_N||_2

    (m = (N + 1) d, u the machine epsilon, ``eigvalsh``'s error convention
    as in ``certified_series``), and the interval is bisected only where
    that bracket leaves a level's ``is_psd`` or ``is_strictly_positive``
    undecided.  A decomposed level's report is bitwise that of
    ``psd_report`` of its own assembly; every verdict equals it, and every
    bracket contains its ``min_eigenvalue``.  Where the verdicts change
    once, O(log N) levels are decomposed.  Data with a non-finite entry
    are decomposed level by level.

    Raises
    ------
    NotPsdError
        If the data has a non-finite entry on which LAPACK cannot decompose
        some level.
    """
    herm = _hermitian_part(assemble(seq).dense, tol)
    if not np.isfinite(herm).all():
        try:
            return list(_level_reports(herm, seq.block_dim, tol))
        except np.linalg.LinAlgError:
            raise NotPsdError("coefficient data has a non-finite entry") from None
    return _interlaced_reports(herm, seq.block_dim, tol, np.linalg.eigvalsh(herm))


def _interlacing_margin(eigs):
    # 4 m u ||A||_2 for a Hermitian A of size m with computed eigenvalues
    # ``eigs`` (ascending): each eigenvalue eigvalsh computes for A, or for a
    # leading block of A, lies within half of it of an exact one
    return float(4 * len(eigs) * np.finfo(float).eps * max(-eigs[0], eigs[-1]))


def _bracket(lower, upper, tol):
    # the report of a level whose computed lambda_min lies in [lower, upper];
    # callers pass brackets that decide both verdicts
    return LevelReport(lower, upper, lower >= -tol, lower > tol, tol)


def _level_report(herm, block_dim, n, tol):
    # the report of level n decomposed, from the Hermitian part of a larger
    # level: that of psd_report
    k = (n + 1) * block_dim
    min_eig = float(np.linalg.eigvalsh(herm[:k, :k])[0])
    return _bracket(min_eig, min_eig, tol)


def _level_reports(herm, block_dim, tol):
    # every level decomposed, computed as they are drawn
    for n in range(herm.shape[0] // block_dim):
        yield _level_report(herm, block_dim, n, tol)


def _interlaced_reports(herm, block_dim, tol, eigs):
    # the reports of ``positivity_profile`` from the finite Hermitian part
    # of T_N and its eigenvalues ``eigs``
    top = len(eigs) // block_dim - 1
    margin = _interlacing_margin(eigs)
    reports = [None] * (top + 1)
    reports[top] = _bracket(float(eigs[0]), float(eigs[0]), tol)
    if top:
        reports[0] = _level_report(herm, block_dim, 0, tol)
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
            reports[mid] = _level_report(herm, block_dim, mid, tol)
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
