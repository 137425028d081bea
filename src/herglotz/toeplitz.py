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
from .linalg import _hermitian_part, _psd_verdict, hermitian_split, psd_report

__all__ = [
    "CoefficientSequence",
    "BlockToeplitz",
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


def positivity_profile(seq, tol=1e-9):
    """PSD report for every truncation level n = 0 .. N.

    Level n is the leading (n + 1) d x (n + 1) d principal submatrix of
    the full assembled matrix, entrywise the assembly of ``seq.truncated(n)``.
    The symmetry check and the Hermitian part are taken once, of the full
    matrix, and each level's eigenvalues are those of its leading block:
    the reports equal ``psd_report`` of the per-level assemblies.  By
    Cauchy interlacing the minimal eigenvalues are non-increasing in n, so
    once a level fails no later level can be strictly positive.
    """
    herm = _hermitian_part(assemble(seq).dense, tol)
    return _level_reports(herm, seq.block_dim, tol)


def _level_reports(herm, block_dim, tol):
    # PSD reports of the leading block levels of the Hermitian part of an
    # assembled matrix, one eigvalsh per level
    return [
        _psd_verdict(float(np.linalg.eigvalsh(herm[:k, :k])[0]), tol)
        for k in range(block_dim, herm.shape[0] + 1, block_dim)
    ]


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
