"""Complex dense matrix kernel.

Hermitian/skew splitting, positive-semidefiniteness certification, minimal
factorizations A = T*T, connecting isometries between factorizations, and
block LDU splitting around a Schur complement.  Every isometry the library
forms is an orthogonal Procrustes solution (``_procrustes``): the polar
factor of one thin SVD.  Matrices are plain numpy arrays of complex128; the
adjoint ``A*`` is the conjugate transpose throughout.  All functions are
pure: inputs are never modified.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionError,
    FactorizationMismatchError,
    NotHermitianError,
    NotPsdError,
    SingularBlockError,
)

__all__ = [
    "PsdReport",
    "Factorization",
    "SchurSplit",
    "hermitian_split",
    "psd_report",
    "minimal_factorization",
    "connecting_isometry",
    "schur_split",
]

# u, the machine epsilon of float64: twice the unit roundoff
_MACHINE_EPS = np.finfo(float).eps


def _check_tol(tol):
    # a NaN tolerance makes every comparison against it false, which passes
    # or blames whatever it guards, an infinite one admits anything, and a
    # negative one fails exact data: none certifies anything
    if not 0 <= tol < np.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")


def _square(m, what="matrix"):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class PsdReport:
    """Verdict of a positive-semidefiniteness check.

    ``is_psd`` holds iff ``min_eigenvalue >= -tolerance_used``;
    ``is_strictly_positive`` additionally requires
    ``min_eigenvalue > tolerance_used``.
    """

    min_eigenvalue: float
    is_psd: bool
    is_strictly_positive: bool
    tolerance_used: float


@dataclass(frozen=True, eq=False)
class Factorization:
    """Minimal factorization A = T*T with T of full row rank.

    T has shape (rank, n); ``residual`` is the relative reconstruction
    error ||A - T*T|| / ||A|| (Frobenius, zero for A = 0).
    """

    T: np.ndarray
    rank: int
    residual: float


@dataclass(frozen=True, eq=False)
class SchurSplit:
    """Block LDU factorization of G = [[A, B], [C, D]] around the leading
    block A:  G = L * M * U with M = blockdiag(A, D - C A^{-1} B).

    ``leading_cond`` is the 2-norm condition number of A; it is reported,
    never capped.
    """

    a_block: np.ndarray
    b_block: np.ndarray
    c_block: np.ndarray
    d_block: np.ndarray
    schur_complement: np.ndarray
    lower_factor: np.ndarray
    middle_factor: np.ndarray
    upper_factor: np.ndarray
    leading_cond: float


def hermitian_split(m):
    """Split a square matrix into Hermitian and skew-Hermitian parts.

    Returns ``(H, S)`` with ``H = (M + M*)/2``, ``S = (M - M*)/2``, so that
    ``M = H + S``, ``H* = H`` and ``S* = -S`` hold exactly (entrywise, not
    merely to tolerance).
    """
    m = _square(m)
    # halved before adding, so finite entries near the float maximum give a
    # finite split; away from overflow and underflow the bits are those of
    # (M + M*)/2
    half, half_h = m / 2, m.conj().T / 2
    return half + half_h, half - half_h


def psd_report(h, tol=1e-9):
    """Certify positive semidefiniteness of a Hermitian matrix.

    Parameters
    ----------
    h : array_like, square
        Matrix expected to be Hermitian within ``tol`` (max entrywise
        deviation of ``h - h*``).
    tol : float
        Tolerance used both for the Hermitian check and the eigenvalue
        verdicts.

    Returns
    -------
    PsdReport
        ``min_eigenvalue`` is the smallest eigenvalue of the Hermitian
        part of ``h``.

    Raises
    ------
    ValueError
        If ``tol`` is negative, NaN or infinite.
    NotHermitianError
        If ``h`` deviates from Hermitian symmetry beyond ``tol``, or has a
        non-finite entry.
    """
    _check_tol(tol)
    herm = _hermitian_part(_square(h), tol)
    eigs = np.linalg.eigvalsh(herm) if herm.size else np.array([np.inf])
    return _psd_verdict(float(eigs[0]), tol)


def _hermitian_part(h, tol):
    # (h + h*) / 2, after checking that h is Hermitian within tol.  Taken
    # entrywise, so the leading blocks of the result are the Hermitian parts
    # of the leading blocks of h.  A non-finite entry makes the defect NaN
    # (inf - inf on the diagonal), which fails the check.
    with np.errstate(invalid="ignore"):
        defect = float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0
    if not defect <= tol:
        raise NotHermitianError(
            f"matrix is not Hermitian: max asymmetry {defect:.3e} exceeds tol {tol:.3e}"
        )
    return (h + h.conj().T) / 2


def _psd_verdict(min_eig, tol):
    return PsdReport(
        min_eigenvalue=min_eig,
        is_psd=min_eig >= -tol,
        is_strictly_positive=min_eig > tol,
        tolerance_used=tol,
    )


def minimal_factorization(a, tol_rank=1e-10):
    """Factor a Hermitian PSD matrix as A = T*T with T of full row rank.

    The factor is built from the Hermitian eigendecomposition, which also
    gives the PSD verdict: eigenvalues above ``tol_rank * lambda_max`` are
    kept, small negatives in ``[-tol_rank, 0)`` are clamped to zero first.
    The number of rows of T is the numerical rank, so T automatically has
    full row rank (dense range onto its target space).

    Raises
    ------
    ValueError
        If ``tol_rank`` is negative, NaN or infinite.
    NotPsdError
        If the smallest eigenvalue is below ``-tol_rank``; the offending
        eigenvalue is reported.
    NotHermitianError
        If ``a`` deviates from Hermitian symmetry beyond ``tol_rank``, or
        has a non-finite entry.
    """
    _check_tol(tol_rank)
    herm = _hermitian_part(_square(a), tol_rank)
    if herm.size == 0:
        return Factorization(T=np.zeros((0, 0), dtype=complex), rank=0, residual=0.0)
    eigs, vecs = np.linalg.eigh(herm)
    if not eigs[0] >= -tol_rank:
        raise NotPsdError(
            f"matrix is not PSD: eigenvalue {eigs[0]:.6e} below -{tol_rank:.1e}"
        )
    eigs = np.where(eigs < 0.0, 0.0, eigs)
    cutoff = tol_rank * eigs[-1]
    keep = eigs > cutoff
    t = np.sqrt(eigs[keep])[:, None] * vecs[:, keep].conj().T
    norm_a = np.linalg.norm(herm)
    residual = float(np.linalg.norm(herm - t.conj().T @ t) / norm_a) if norm_a > 0 else 0.0
    return Factorization(T=t, rank=int(keep.sum()), residual=residual)


def _procrustes(target, source):
    # the isometry V minimising ||V source - target||_F over V* V = I
    # (orthogonal Procrustes; Schoenemann, Psychometrika 31 (1966)): the
    # polar factor of target source*, from its thin SVD, returned with that
    # SVD's singular values.  An isometry needs target to have at least as
    # many rows as source; with fewer, the polar factor is a co-isometry
    outer, sv, inner = np.linalg.svd(target @ source.conj().T, full_matrices=False)
    return outer @ inner, sv


def connecting_isometry(minimal, other, tol=1e-8):
    """Isometry V with V T = T' between two factorizations of the same matrix.

    Parameters
    ----------
    minimal : Factorization or array_like
        Minimal factor T (full row rank, r x n) of some PSD matrix A.
    other : array_like
        A second factor T' (r' x n, r' >= r) with (T')* T' = A.
    tol : float
        Consistency tolerance on ``T*T - (T')*(T')``.

    Returns
    -------
    numpy.ndarray
        V of shape (r', r) with ``V* V = I_r`` to rounding and ``V T = T'``
        as closely as any isometry achieves, up to rounding.  When T' is
        also minimal (r' = r), V is unitary.

    Notes
    -----
    V maps each column of T to the matching column of T' (the graph of the
    isometric relation between the two factor spaces).  Numerically it is
    the orthogonal Procrustes solution: the isometry minimising
    ||V T - T'||_F, the polar factor of T' T* from one thin SVD.  It is an
    isometry to rounding by construction, and because it minimises the
    residual over all isometries, ``V T = T'`` holds as well as the data
    allow even where T has tiny singular values, which would amplify noise
    in T' through a least-squares map T' T^+.

    Raises
    ------
    ValueError
        If ``tol`` is negative, NaN or infinite.
    DimensionError
        If T and T' do not share the source dimension n.
    FactorizationMismatchError
        If T' has fewer rows than T (no isometry maps the range of T into
        it), or ``T*T`` and ``(T')*(T')`` differ beyond ``tol``.
    """
    _check_tol(tol)
    t = np.asarray(minimal.T if isinstance(minimal, Factorization) else minimal, dtype=complex)
    tp = np.asarray(other, dtype=complex)
    if t.ndim != 2 or tp.ndim != 2 or t.shape[1] != tp.shape[1]:
        raise DimensionError(
            f"factors must share the source dimension, got {t.shape} and {tp.shape}"
        )
    if tp.shape[0] < t.shape[0]:
        raise FactorizationMismatchError(
            f"second factor has {tp.shape[0]} rows, fewer than the {t.shape[0]} "
            f"of the minimal factor"
        )
    a1 = t.conj().T @ t
    a2 = tp.conj().T @ tp
    gap = np.linalg.norm(a1 - a2)
    if gap > tol * max(1.0, np.linalg.norm(a1)):
        raise FactorizationMismatchError(
            f"factorizations disagree: ||T*T - (T')*(T')|| = {gap:.3e}"
        )
    return _procrustes(tp, t)[0]


def schur_split(g, k):
    """Block LDU factorization of G around its leading k x k block.

    Writes G = [[A, B], [C, D]] with A = G[:k, :k] and returns the exact
    factorization G = L * M * U where

        L = [[I, 0], [C A^{-1}, I]],
        M = blockdiag(A, D - C A^{-1} B),
        U = [[I, A^{-1} B], [0, I]].

    Raises
    ------
    SingularBlockError
        If A is numerically singular; the smallest singular value is
        reported.
    """
    g = _square(g)
    n = g.shape[0]
    if not 1 <= k <= n:
        raise DimensionError(f"leading block size {k} out of range for {n} x {n} matrix")
    a = g[:k, :k]
    b = g[:k, k:]
    c = g[k:, :k]
    d = g[k:, k:]
    svals = np.linalg.svd(a, compute_uv=False)
    smin, smax = float(svals[-1]), float(svals[0])
    if smin <= smax * k * _MACHINE_EPS:
        raise SingularBlockError(
            f"leading {k} x {k} block is numerically singular "
            f"(smallest singular value {smin:.3e})"
        )
    a_inv = np.linalg.inv(a)
    schur = d - c @ a_inv @ b
    lower = np.eye(n, dtype=complex)
    lower[k:, :k] = c @ a_inv
    upper = np.eye(n, dtype=complex)
    upper[:k, k:] = a_inv @ b
    middle = np.zeros((n, n), dtype=complex)
    middle[:k, :k] = a
    middle[k:, k:] = schur
    return SchurSplit(
        a_block=a,
        b_block=b,
        c_block=c,
        d_block=d,
        schur_complement=schur,
        lower_factor=lower,
        middle_factor=middle,
        upper_factor=upper,
        leading_cond=smax / smin,
    )
