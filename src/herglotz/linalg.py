"""Complex dense matrix kernel.

Hermitian/skew splitting, positive-semidefiniteness certification, minimal
factorizations A = T*T, connecting isometries between factorizations, and
block LDU splitting around a Schur complement.  Every isometry the library
forms is an orthogonal Procrustes solution (``_procrustes``): the polar
factor of one thin SVD.  Matrices are plain numpy arrays of complex128; the
adjoint ``A*`` is the conjugate transpose throughout.  All functions are
pure: inputs are never modified.
"""

import math
import operator
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


def _integer(value, name):
    # ``value`` as an int (numpy integers pass), refused as the argument
    # ``name`` before any work: a float count would otherwise fail only in
    # numpy's slicing or reshaping, after the work before it
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


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
    return _hermitian(m), m / 2 - m.conj().T / 2


def _hermitian(m):
    # the Hermitian part (M + M*) / 2 of a square complex array: the formula
    # of ``hermitian_split``, of the diagonal of ``toeplitz.assemble`` and of
    # every checked Hermitian part (``_hermitian_part``).  Halved before
    # adding, so finite entries near the float maximum give a finite result;
    # away from overflow and underflow the bits are those of (M + M*) / 2.
    # M* is formed in C order, halved and added to in place: the bits of
    # M / 2 + M* / 2 in two temporaries, not four.  (The conjugate of M / 2
    # is not M* / 2 bit for bit: numpy divides by 2 + 0i, which can turn the
    # sign of a zero real part)
    herm = np.conjugate(m.T, order="C")
    herm /= 2
    herm += m / 2
    return herm


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
    # (h + h*) / 2 (``_hermitian``), after checking that h is Hermitian
    # within tol.  Taken entrywise, so the leading blocks of the result are
    # the Hermitian parts of the leading blocks of h.  A non-finite entry
    # makes the defect NaN (inf - inf on the diagonal), and a difference past
    # the float maximum makes it inf; either fails the check.
    with np.errstate(invalid="ignore", over="ignore"):
        defect = float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0
    if not defect <= tol:
        raise NotHermitianError(
            f"matrix is not Hermitian: max asymmetry {defect:.3e} exceeds tol {tol:.3e}"
        )
    return _hermitian(h)


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
    # A is decomposed divided by half^2, the even power of 2 nearest its
    # largest entry, and its factor is scaled back by half.  The scalings are
    # exact and eigh commutes with them, so the verdict, the factor and the
    # residual keep the bits of the unscaled ones wherever those neither
    # overflow nor underflow, and an eigenvalue past the float maximum still
    # gives a finite factor
    top = float(np.abs(herm).max())
    half = np.ldexp(1.0, max(int(np.frexp(top)[1]), -1021) // 2)
    scaled = herm / half / half
    eigs, vecs = np.linalg.eigh(scaled)
    least = eigs[0] * half * half
    if not least >= -tol_rank:
        raise NotPsdError(f"matrix is not PSD: eigenvalue {least:.6e} below -{tol_rank:.1e}")
    eigs = np.where(eigs < 0.0, 0.0, eigs)
    keep = eigs > tol_rank * eigs[-1]
    t = np.sqrt(eigs[keep])[:, None] * vecs[:, keep].conj().T
    residual = 0.0
    if top > 0:
        residual = float(np.linalg.norm(scaled - t.conj().T @ t) / np.linalg.norm(scaled))
    return Factorization(T=t * half, rank=int(keep.sum()), residual=residual)


def _procrustes(cross, floor=-np.inf):
    # the isometry V minimising ||V source - target||_F over V* V = I
    # (orthogonal Procrustes; Schoenemann, Psychometrika 31 (1966)): the
    # polar factor of their ``cross`` product target source*, which the
    # caller forms, from its thin SVD, returned as its two factors (V =
    # outer inner).  An isometry needs target to have at least as many rows
    # as source; with fewer, the polar factor is a co-isometry.  Singular
    # values at or below ``floor`` are dropped with their singular vectors,
    # which leaves the partial isometry of the polar decomposition of a cross
    # product of that rank
    outer, sv, inner = np.linalg.svd(cross, full_matrices=False)
    k = np.count_nonzero(sv > floor)
    return outer[:, :k], inner[:k]


def _powers(z, n):
    # z^1 .. z^n along a new last axis, by running product: n - 1 complex
    # multiplications per point, far cheaper than ``**``, which calls libm's
    # cpow for every exponent of 100 or more.  The table is filled with z and
    # multiplied through in place, which gives bitwise the ``cumprod`` of
    # the broadcast z without its strided read
    table = np.empty(z.shape + (n,), dtype=z.dtype)
    table[...] = z[..., None]
    return np.multiply.accumulate(table, axis=-1, out=table)


def _orbit(a, y, n):
    # y, a y, ..., a^n y stacked on a new first axis: the expansion of every
    # Hilbert-space realization C* V^n C of the library (the fixtures, the
    # central extension's minimal factor, the base isometries of
    # ``gram_isometries``).  Each power is one matmul into its slot of the
    # stack, so a^k y has the bits of k products taken one after another,
    # whatever n is: a longer orbit extends a shorter one bit for bit
    ys = np.empty((n + 1,) + y.shape, dtype=complex)
    ys[0] = y
    for k in range(n):
        np.matmul(a, ys[k], out=ys[k + 1])
    return ys


def connecting_isometry(minimal, other, tol=1e-8):
    """Isometry V with V T = T' between two factorizations of the same matrix.

    Parameters
    ----------
    minimal : Factorization or array_like
        Minimal factor T (full row rank, r x n) of some PSD matrix A.
    other : array_like
        A second factor T' (r' x n, r' >= r) with (T')* T' = A.
    tol : float
        Consistency tolerance on ``||T*T - (T')*(T')||_F`` relative to
        ``||T*T||_F``, so the verdict does not depend on the factors' scale.

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
    # T and T' are multiplied by ``scale``, the power of 2 that brings their
    # largest real or imaginary part into [1/2, 1) (raising a tiny one by
    # 2^511 at most), so T*T cannot overflow, and the gap is tested in units
    # scaled by scale^2, relative to ||T*T||_F.  The scalings are exact and
    # the SVD commutes with them, so the verdict, the message and the
    # isometry keep the bits of the unscaled ones wherever those neither
    # overflow nor underflow and T' T* lies where LAPACK does not rescale it
    # (entries between about 1e-138 and 1e138); T = 0, and tol = 0, ask for
    # a zero gap
    top = max(float(np.abs(part).max(initial=0.0)) for x in (t, tp) for part in (x.real, x.imag))
    scale = math.ldexp(1.0, -max(math.frexp(top)[1], -511))
    with np.errstate(invalid="ignore"):
        # a non-finite entry gives a NaN gap, which the test below refuses
        t = t * scale
        tp = tp * scale
        a1 = t.conj().T @ t
        gap = float(np.linalg.norm(a1 - tp.conj().T @ tp))
    if not gap <= tol * float(np.linalg.norm(a1)):
        raise FactorizationMismatchError(
            f"factorizations disagree: ||T*T - (T')*(T')|| = {gap / scale / scale:.3e}"
        )
    outer, inner = _procrustes(tp @ t.conj().T)
    return outer @ inner


def schur_split(g, k):
    """Block LDU factorization of G around its leading k x k block.

    Writes G = [[A, B], [C, D]] with A = G[:k, :k] and returns the exact
    factorization G = L * M * U where

        L = [[I, 0], [C A^{-1}, I]],
        M = blockdiag(A, D - C A^{-1} B),
        U = [[I, A^{-1} B], [0, I]].

    Raises
    ------
    TypeError
        If ``k`` is not an integer (numpy integers are), checked first.
    DimensionError
        If G is not square or ``k`` is not in 1..n.
    ValueError
        If G has a non-finite entry (checked before the SVD of A).
    SingularBlockError
        If A is numerically singular; the smallest singular value is
        reported.
    """
    k = _integer(k, "k")
    g = _square(g)
    n = g.shape[0]
    if not 1 <= k <= n:
        raise DimensionError(f"leading block size {k} out of range for {n} x {n} matrix")
    if not np.isfinite(g).all():
        raise ValueError("matrix must be finite")
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
