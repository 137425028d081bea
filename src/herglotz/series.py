"""Matrix-valued Herglotz series, their positive kernels, state-space
realization oracles, and the reduction to a minimal base-factor form.

A truncated series Phi(z) = M_0 + 2 sum_{n>=1} z^n M_n is positive-real on
the unit disk exactly when every truncation-level block Toeplitz matrix of
its coefficients is PSD; the two-point kernel

    K(z, w) = (Phi(z) + Phi(w)*) / (1 - z conj(w))

is then positive.  ``reduce`` rewrites such data as
Phi(z) = D_imag + T0* phi(z) T0 with phi normalized to phi(0) = I on the
range space of the Hermitian part of M_0.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import (
    DimensionError,
    DomainError,
    FactorizationMismatchError,
    FixtureError,
    InsufficientDataError,
    NotPsdError,
    RangeCompatibilityError,
)
from .linalg import (
    _check_tol,
    _hermitian,
    _integer,
    _orbit,
    _powers,
    _psd_verdict,
    connecting_isometry,
    hermitian_split,
    minimal_factorization,
)
from .toeplitz import CoefficientSequence, _check_data, _decomposed, _frobenius_squares
from .toeplitz import _minimal_factor, assemble

__all__ = [
    "HerglotzSeries",
    "Realization",
    "ReducedForm",
    "GramFactor",
    "certified_series",
    "eval_series",
    "series_tail_bound",
    "kernel_value",
    "kernel_gram",
    "kernel_finite_section",
    "realization_coefficients",
    "eval_realization",
    "random_realization",
    "reduce",
    "gram_isometries",
    "compose_reduced",
]


@dataclass(frozen=True, eq=False)
class HerglotzSeries:
    """Truncated Herglotz series with a declared evaluation radius < 1.

    ``certified`` records whether all truncation-level Toeplitz matrices
    were verified PSD (either checked at construction via
    ``certified_series`` or guaranteed by the producing algorithm).
    """

    seq: CoefficientSequence
    declared_radius: float = 0.9
    certified: bool = False

    def __post_init__(self):
        if not 0 < self.declared_radius < 1:
            raise DomainError(f"declared radius must lie in (0, 1), got {self.declared_radius}")

    @cached_property
    def _max_block_norm(self):
        # max_n ||M_n||_2 for the tail bound, on first use, none at
        # construction; the coefficients are read-only.  ||M||_2 <= ||M||_F
        # <= sqrt(d) ||M||_2, so a block whose squared Frobenius norm times
        # d is below another's cannot reach the maximum, and only the other
        # blocks go through the batched SVD: the same bits as all of them.
        # The relative allowance 2^-20 is far above the rounding of the
        # squares and of a computed largest singular value (a few d^2 u),
        # the absolute 2^-1000 above that of squares that underflow; a
        # block whose square overflows is kept
        coeffs = self.seq.coefficients
        squares = _frobenius_squares(coeffs)
        largest = np.max(squares, initial=0.0, where=np.isfinite(squares))
        with np.errstate(over="ignore"):
            reach = squares * (coeffs.shape[1] * (1 + 2.0**-20)) + 2.0**-1000
        return float(np.linalg.norm(coeffs[~(reach < largest)], 2, axis=(1, 2)).max())


@dataclass(frozen=True, eq=False)
class Realization:
    """State-space data (D, C, V) generating a Herglotz function.

    D (d x d) is purely imaginary (D + D* = 0), V (h x h) is an isometry
    (V* V = I, hence unitary at finite dimension), C maps the coefficient
    space into the state space (h x d).
    """

    D: np.ndarray
    C: np.ndarray
    V: np.ndarray


@dataclass(frozen=True, eq=False)
class ReducedForm:
    """Data of the reduction Phi(z) = D_imag + T0* phi(z) T0.

    ``t0`` is the minimal factor of (M_0 + M_0*)/2 (full row rank r x d);
    ``t_seq`` holds the reduced coefficients t_0 .. t_N over dimension r
    with t_0 = I, or None when r = 0; ``residuals[j]`` records
    ||M_j - T0* t_j T0|| (Frobenius), at every rank r including 0, where
    T0 is 0 x d and the residuals are the norms of the coefficients.
    """

    d_imag: np.ndarray
    t0: np.ndarray
    t_seq: CoefficientSequence | None
    residuals: list


@dataclass(frozen=True, eq=False)
class GramFactor:
    """Minimal factor F of an assembled Toeplitz matrix, split into column
    blocks F_j = V_j T0 with isometries V_j onto a common base factor T0."""

    factor: np.ndarray
    blocks: list
    isometries: list


def certified_series(seq, declared_radius=0.9, tol=1e-9):
    """Construct a HerglotzSeries after verifying every truncation level.

    The level-n Toeplitz matrix T_n is the leading block of T_N, so by
    Cauchy interlacing lambda_min(T_n) >= lambda_min(T_N), and each level's
    computed lambda_min is within 2 m u ||T_N||_2 of its exact value (m the
    size of T_N, u the machine epsilon; the convention of
    ``positivity_profile``).  Two rungs prove that every level passes.
    On determinate data (rank T_s = rank T_{s-1} at a leading level s,
    the Caratheodory-Fejer case) the atom rung does, from T_s alone: the
    data past s must be the unique PSD continuation of T_s, an r-atom
    measure, and its certificate plus their defects against it are checked
    against -tol and the same margin, in O(s^3 d^3 + N r d^2) with nothing
    of T_N's size assembled.  Otherwise one Cholesky factorisation of T_N,
    shifted down to -tol plus that margin and its own rounding margin, does,
    in O(N^3 d^3), at a fraction of the cost of an eigendecomposition.
    Only where both fail is T_N assembled afresh and decomposed: every level
    passes unless its computed lambda_min lies within the rounding margin
    of ``-tol``, and there the levels are decided as ``positivity_profile``
    decides them from the spectrum of T_N and the first failing level is
    named with its computed lambda_min.  Verdicts and messages are those
    of the eigenvalue check.

    Raises
    ------
    ValueError
        If ``tol`` is negative, NaN or infinite.
    NotPsdError
        Naming the first truncation level whose Toeplitz matrix fails.
    """
    _check_data(seq, tol)
    return HerglotzSeries(seq=seq, declared_radius=declared_radius, certified=True)


def eval_series(phi, z):
    """Evaluate Phi(z) = M_0 + 2 sum_{n=1..T} z^n M_n.

    ``z`` is a point or a 1-d array of m points; the result is d x d or
    m x d x d.  The powers z^n are formed by running product and contracted
    with M_1 .. M_T, read as a T x d^2 matrix, in one ``np.dot`` (the
    product that ``np.tensordot`` forms), so to first order in the unit
    roundoff u each entry is off from the exact power sum by at most
    4 (T + 2) u (|M_0| + 2 sum |z|^n |M_n|), taken entrywise: the n - 1
    complex products in z^n, the product with M_n and the sum each add a
    few u per term.  The omitted tail is bounded by
    ``series_tail_bound(phi, z)``.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim > 1:
        raise DimensionError(f"expected a point or a 1-d array of points, got shape {z.shape}")
    inside = np.abs(z) <= phi.declared_radius
    if not inside.all():
        raise DomainError(
            f"|z| = {abs(z[~inside].flat[0]):.6f} outside declared radius {phi.declared_radius}"
        )
    coeffs = phi.seq.coefficients
    t, d = phi.seq.order, phi.seq.block_dim
    # 2 sum + M_0 in place, the bits of M_0 + 2 sum: doubling is exact and
    # addition commutes
    values = np.dot(_powers(z, t), coeffs[1:].reshape(t, d * d)).reshape(z.shape + (d, d))
    values *= 2
    values += coeffs[0]
    return values


def series_tail_bound(phi, z):
    """Geometric bound on the dropped tail of ``eval_series``:
    2 max_n ||M_n||_2 |z|^{T+1} / (1 - |z|), for a point (a float) or a 1-d
    array of points (an array).  max_n ||M_n||_2 is computed once per
    series, on the first call: ||M_n||_2 <= ||M_n||_F <= sqrt(d) ||M_n||_2,
    so only the blocks whose Frobenius norm is within a factor sqrt(d) of
    the largest one are decomposed, and the maximum is bitwise that of a
    spectral norm of every block."""
    r = np.abs(np.asarray(z, dtype=complex))
    if not (r < 1).all():
        raise DomainError(f"|z| = {r.max():.6f} must be below 1 for a finite tail bound")
    bound = 2 * phi._max_block_norm * r ** (phi.seq.order + 1) / (1 - r)
    return bound if bound.ndim else float(bound)


def _szego_denominators(pts):
    # the m x m Hermitian matrix of 1 - z_l conj(z_j) at the 1-d point array
    # ``pts``, shared by every kernel Gram: the outer product is taken from 1
    # in place, then made Hermitian.  numpy's complex multiply is not
    # conjugate-symmetric, its division is: with the denominators made
    # Hermitian, so is the Gram, bit for bit
    den = np.multiply.outer(pts, pts.conj())
    return _hermitian(np.subtract(1, den, out=den))


def _kernel_blocks(phi, pts):
    # (m, d, m, d) array whose [l, :, j, :] block is
    # K(z_l, z_j) = (Phi(z_l) + Phi(z_j)*) / (1 - z_l conj(z_j)), from one
    # ``eval_series`` and the shared denominators.  Row (l, a) is row a of
    # Phi(z_l) tiled m times, plus row a of [Phi(z_1)* .. Phi(z_m)*], over
    # its row of denominators each repeated d times: the sum and the
    # division run in place over rows of m d contiguous entries, with the
    # operands and bits of the broadcast (m, d, m, d) forms
    values = eval_series(phi, pts)
    m, d = values.shape[:2]
    blocks = np.tile(values, m)
    blocks += np.ascontiguousarray(values.conj().transpose(2, 0, 1)).reshape(d, m * d)
    blocks /= np.repeat(_szego_denominators(pts), d, axis=1)[:, None, :]
    return blocks.reshape(m, d, m, d)


def kernel_value(phi, z, w):
    """Two-point kernel K(z, w) = (Phi(z) + Phi(w)*) / (1 - z conj(w))."""
    return _kernel_blocks(phi, np.array([z, w], dtype=complex))[0, :, 1, :]


def _gram_matrix(phi, pts, vecs=None):
    # dense (m d) x (m d) kernel Gram at the 1-d point array ``pts``, or its
    # m x m compression by the (m, d) array of one vector h_l per point:
    # with A[l, j] = <Phi(z_l) h_j, h_l> the compressed entry is
    # (A[l, j] + conj(A[j, l])) / (1 - z_l conj(z_j)), no block tensor needed,
    # over the shared Hermitian denominators, divided in place
    if vecs is None:
        m, d = len(pts), phi.seq.block_dim
        return _kernel_blocks(phi, pts).reshape(m * d, m * d)
    u_conj = np.einsum("lb,lba->la", vecs.conj(), eval_series(phi, pts))
    a = u_conj @ vecs.T
    num = a + a.conj().T
    return np.divide(num, _szego_denominators(pts), out=num)


def kernel_gram(phi, points, vectors=None, tol=1e-6):
    """PSD report for the kernel Gram matrix sampled at ``points``.

    ``points`` has shape (m,).  Without ``vectors`` the dense (m d) x (m d)
    Gram with (l, j) block K(z_l, z_j) is assembled; with ``vectors`` of
    shape (m, d), one d-vector h_l per point, the compressed m x m matrix of
    pairings <K(z_l, z_j) h_j, h_l> is formed directly from the values
    Phi(z_l) h_j, in O(m^2 d) work and without the (m, d, m, d) block
    tensor.  Either Gram is Hermitian by construction, bit for bit, so its
    smallest eigenvalue is judged as computed, against ``tol`` plus m times
    the largest per-point tail bound.  That allowance does not bound the
    Gram's truncation error, which can reach 2 max tail lambda_max([1 / (1 -
    z_l conj(z_j))]) (times max |h_l|^2 with ``vectors``).

    Raises
    ------
    ValueError
        If ``tol`` is negative, NaN or infinite, or ``vectors`` has a
        non-finite entry (checked before any evaluation).
    DimensionError
        If ``points`` is not of shape (m,) with m >= 1 or ``vectors`` is
        not of shape (m, d); both are checked before any evaluation.
    """
    _check_tol(tol)
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 1:
        raise DimensionError(f"expected points of shape (m,), got shape {pts.shape}")
    if len(pts) == 0:
        raise DimensionError("need at least one sample point")
    vecs = None
    if vectors is not None:
        vecs = np.asarray(vectors, dtype=complex)
        expected = (len(pts), phi.seq.block_dim)
        if vecs.shape != expected:
            raise DimensionError(
                f"expected one vector per point, of shape (m, d) = {expected}, "
                f"got shape {vecs.shape}"
            )
        if not np.isfinite(vecs).all():
            raise ValueError("vectors must be finite")
    gram = _gram_matrix(phi, pts, vecs)
    widened = tol + len(pts) * float(np.max(series_tail_bound(phi, pts)))
    return _psd_verdict(float(np.linalg.eigvalsh(gram)[0]), widened)


def kernel_finite_section(seq, z, w, n):
    """Finite-section kernel approximation through the order-n Toeplitz matrix.

    Computes ``2 row(z) M_n row(w)*`` with row(z) = (z^n I, ..., z I, I);
    as n grows this converges geometrically to K(z, w) of the series of
    ``seq`` for |z|, |w| < 1.  ``n`` must be an integer (numpy integers
    are); anything else raises ``TypeError`` before any work.
    """
    n = _integer(n, "n")
    z = complex(z)
    w = complex(w)
    if not (abs(z) < 1 and abs(w) < 1):
        raise DomainError("both points must lie strictly inside the unit disk")
    if n > seq.order:
        raise InsufficientDataError(
            f"order {n} requested but only coefficients up to {seq.order} available"
        )
    d = seq.block_dim
    dense = assemble(seq.truncated(n)).dense
    eye = np.eye(d)
    row_z = np.kron(np.append(1, _powers(np.asarray(z), n))[None, ::-1], eye)
    row_w = np.kron(np.append(1, _powers(np.asarray(w), n))[None, ::-1], eye)
    return 2 * row_z @ dense @ row_w.conj().T


def _check_realization(rlz, tol=1e-8):
    _check_tol(tol)
    d = np.asarray(rlz.D, dtype=complex)
    c = np.asarray(rlz.C, dtype=complex)
    v = np.asarray(rlz.V, dtype=complex)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise FixtureError(f"D must be square, got shape {d.shape}")
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise FixtureError(f"V must be square, got shape {v.shape}")
    if c.ndim != 2 or c.shape != (v.shape[0], d.shape[0]):
        raise FixtureError(
            f"C must map the coefficient space into the state space, got {c.shape}"
        )
    for name, m in (("D", d), ("C", c), ("V", v)):
        if not np.isfinite(m).all():
            raise FixtureError(f"{name} has a non-finite entry")
    # written as "not <= tol" so that a NaN defect fails too
    skew_defect = np.linalg.norm(d + d.conj().T)
    if not skew_defect <= tol:
        raise FixtureError(f"D is not purely imaginary: ||D + D*|| = {skew_defect:.3e}")
    iso_defect = np.linalg.norm(v.conj().T @ v - np.eye(v.shape[0]))
    if not iso_defect <= tol:
        raise FixtureError(f"V is not an isometry: ||V*V - I|| = {iso_defect:.3e}")
    return d, c, v


def realization_coefficients(rlz, n_max, tol=1e-8):
    """Series coefficients generated by a realization:
    M_0 = D + C*C and M_n = C* (V*)^n C for n >= 1.

    Every truncation-level Toeplitz matrix of the result is PSD by
    construction, which makes realizations the fixture oracle of choice.
    The states (V*)^n C are the orbit of C under V* (``_orbit``, the one
    running product of every realization in the library), and every
    C* (V*)^n C comes from one stacked product: the bits of the products
    taken step by step.

    Raises
    ------
    TypeError
        If ``n_max`` is not an integer (numpy integers are), before the
        realization is checked.
    ValueError
        If ``n_max`` is negative, or ``tol`` is negative, NaN or infinite.
    FixtureError
        If the realization is malformed: shapes that do not fit, a
        non-finite entry, D not skew or V not an isometry within ``tol``.
    """
    if (n_max := _integer(n_max, "n_max")) < 0:
        raise ValueError(f"order must be nonnegative, got {n_max}")
    d, c, v = _check_realization(rlz, tol)
    blocks = c.conj().T @ _orbit(v.conj().T, c, n_max)
    blocks[0] += d
    return CoefficientSequence(blocks)


def eval_realization(rlz, z, tol=1e-8):
    """Exact rational evaluation Phi(z) = D + C*(I + z V*)(I - z V*)^{-1} C.

    Valid for |z| < 1, where I - z V* is invertible because ||V*|| = 1.
    """
    d, c, v = _check_realization(rlz, tol)
    z = complex(z)
    if not abs(z) < 1:
        raise DomainError(f"|z| = {abs(z):.6f} is not inside the open unit disk")
    vh = v.conj().T
    h = v.shape[0]
    y = np.linalg.solve(np.eye(h) - z * vh, c)
    return d + c.conj().T @ (y + z * (vh @ y))


def random_realization(seed, block_dim, state_dim, zero_c=False):
    """Seeded random realization: Haar unitary V, Gaussian C, skew D.

    ``seed`` may be an integer or a ``numpy.random.Generator``.  The
    unitary is an orthogonalized complex Gaussian with the QR phase fix,
    so identical seeds reproduce identical fixtures bit for bit.  The
    dimensions must be integers (numpy integers are; anything else raises
    ``TypeError``) and at least 1 (``DimensionError``), both checked before
    anything is drawn from a given ``Generator``.
    """
    block_dim, state_dim = _integer(block_dim, "block_dim"), _integer(state_dim, "state_dim")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if block_dim < 1 or state_dim < 1:
        raise DimensionError("block and state dimensions must be at least 1")
    g = rng.standard_normal((state_dim, state_dim)) + 1j * rng.standard_normal(
        (state_dim, state_dim)
    )
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    v = q * phases
    if zero_c:
        c = np.zeros((state_dim, block_dim), dtype=complex)
    else:
        c = (
            rng.standard_normal((state_dim, block_dim))
            + 1j * rng.standard_normal((state_dim, block_dim))
        ) / np.sqrt(2 * state_dim)
    gd = rng.standard_normal((block_dim, block_dim)) + 1j * rng.standard_normal(
        (block_dim, block_dim)
    )
    d = (gd - gd.conj().T) / 2
    return Realization(D=d, C=c, V=v)


def reduce(seq, tol=1e-8):
    """Reduce coefficient data to the base-factor form (D_imag, T0, t_seq).

    T0 is the minimal factor of Re M_0 = (M_0 + M_0*)/2 and each reduced
    coefficient is the two-sided normal-equations compression

        t_j = (T0 T0*)^{-1} T0 M_j T0* (T0 T0*)^{-1},

    exact whenever M_j factors through the range of T0*, which holds for
    every genuine positive-Toeplitz truncation.  All t_j and the defects
    M_j - T0* t_j T0 come from stacked products, each block bitwise the
    product of its own matrices.  Residuals ||M_j - T0* t_j T0|| are
    recorded per coefficient and failure is loud, at the first coefficient
    over ``tol``.  Rank 0 (Re M_0 = 0) takes the same path: T0 is 0 x d,
    each defect is its own coefficient (Re M_0 for j = 0), and ``t_seq`` is
    None.

    Raises
    ------
    ValueError
        If ``tol`` is negative, NaN or infinite.
    RangeCompatibilityError
        If any residual exceeds ``tol`` (the data cannot be a truncated
        Herglotz series; equivalently some Toeplitz level is not PSD).
    """
    _check_tol(tol)
    coeffs = seq.coefficients
    h0, d_imag = hermitian_split(coeffs[0])
    fact = minimal_factorization(h0, tol_rank=1e-10)
    t0 = fact.T
    compress = np.linalg.pinv(t0).conj().T  # (T0 T0*)^{-1} T0, shape r x d
    targets = np.concatenate([h0[None], coeffs[1:]])
    # stacked products, per block bitwise those of the 2-d products
    reduced = compress @ targets @ compress.conj().T
    residuals = _residuals(targets - t0.conj().T @ reduced @ t0)
    for j, res in enumerate(residuals):
        if res > tol:
            raise RangeCompatibilityError(
                f"coefficient {j} does not factor through the range of T0*: "
                f"residual {res:.3e} exceeds tol {tol:.1e}"
            )
    return ReducedForm(
        d_imag=d_imag,
        t0=t0,
        t_seq=CoefficientSequence(reduced) if fact.rank else None,
        residuals=residuals,
    )


def _residuals(defects):
    # the Frobenius norm of each of the stacked (n, d, d) ``defects``, as a
    # list, bitwise the per-block ``np.linalg.norm``.  Each defect is scaled
    # by the power of 2 that brings its largest real or imaginary part into
    # [1/2, 1) (raising a tiny one by 2^511 at most), so no square
    # overflows; the scaling is exact, so a residual keeps its bits wherever
    # the unscaled norm neither overflows nor underflows.  ``norm`` sums the
    # squares of a complex matrix as re . re + im . im, one strided
    # ``cblas_ddot`` each; the stacked product of each part with itself,
    # one (1, d^2) by (d^2, 1) product per block, makes the same calls
    tops = np.abs(defects.view(float)).max(axis=(1, 2), initial=0.0)
    scales = np.ldexp(1.0, -np.maximum(np.frexp(tops)[1], -511))
    parts = (defects * scales[:, None, None]).view(float).reshape(len(defects), -1, 2)
    parts = parts.transpose(0, 2, 1)[:, :, None, :]
    squares = (parts @ parts.transpose(0, 1, 3, 2))[:, :, 0, 0]
    # a residual past the float maximum is infinite, and is refused by its
    # caller without a numpy warning
    with np.errstate(over="ignore"):
        return (np.sqrt(squares[:, 0] + squares[:, 1]) / scales).tolist()


def gram_isometries(seq, tol=1e-8):
    """Factor the assembled Toeplitz matrix and express its column blocks
    through the base factor.

    F is the minimal factor of T_N that ``extend`` builds, from the same
    one ``eigh``: the eigenpairs above the interlacing margin 4 m u
    ||T_N||_2 (m the size of T_N, u machine eps), so its rank rule is
    relative to the data's scale and does not depend on ``tol``.  Its
    column blocks satisfy F_j = W^j F_0 for the partial isometry W from the
    past blocks (F_0 ... F_{N-1}) onto the future ones (F_1 ... F_N), and
    F_0 factors Re M_0 = T0* T0.  So V_0 is the orthogonal Procrustes
    solution of ``connecting_isometry`` with F_0 = V_0 T0, and the orbit
    V_j = W^j V_0 (``_orbit``) gives F_j = V_j T0: one SVD for V_0 and one
    for W.  Verifies the factorisation through G = (V_0 T0 ... V_N T0): its
    first block row reproduces the data, M_j = T0* V_0* V_j T0 for j >= 1,
    and G* G reproduces T_N, each within ``tol`` times ||T_N||_F, so the
    verdict does not change when the data are rescaled; data with Re M_0 =
    0 are checked the same way.  The V_j are not tested for ``V_j* V_j = I``, nor
    their Gram matrix for positivity: V_0, a polar factor from a thin SVD,
    is an isometry to rounding by construction, and W is one on the range
    of the past blocks, which holds F_0 ... F_{N-1}, less the singular
    values it drops at the margin; a defect of V_j that reaches T0 shows in
    the diagonal blocks of G* G, which the Gram check judges, and a Gram
    matrix is PSD whatever its factor is.  ``tol`` also checks the data and
    is the rank tolerance of T0 (``minimal_factorization``).

    Raises
    ------
    ValueError
        If ``tol`` is negative, NaN or infinite.
    NotPsdError
        Naming the first truncation level whose Toeplitz matrix fails (the
        eigenvalue check behind ``certified_series``).
    SingularBlockError
        If the spectrum of T_N passes the float maximum.
    FactorizationMismatchError
        If a coefficient or T_N is not reproduced within the tolerance, or
        F_0 does not factor Re M_0 (``connecting_isometry``).
    """
    dense, eigs, vecs, margin = _decomposed(seq, tol)
    d = seq.block_dim
    rows, _, outer, inner = _minimal_factor(eigs, vecs, margin, d)
    f = rows.conj().T
    # T_N's leading block is Re M_0 (``assemble``)
    base = minimal_factorization(dense[:d, :d], tol_rank=tol)
    blocks = [f[:, j * d : (j + 1) * d] for j in range(len(seq))]
    v0 = connecting_isometry(base, blocks[0], tol=tol)
    isometries = list(_orbit(outer @ inner, v0, seq.order))
    g = np.hstack([v @ base.T for v in isometries])
    gram = g.conj().T @ g
    allowed = tol * float(np.linalg.norm(dense))
    for j in range(1, len(seq)):
        gap = np.linalg.norm(seq.coefficients[j] - gram[:d, j * d : (j + 1) * d])
        if not gap <= allowed:
            raise FactorizationMismatchError(
                f"coefficient {j} is not reproduced by the base isometries: "
                f"||M_j - T0* V_0* V_j T0|| = {gap:.3e}"
            )
    gap = np.linalg.norm(dense - gram)
    if not gap <= allowed:
        raise FactorizationMismatchError(
            f"Gram reconstruction of the Toeplitz matrix off by {gap:.3e}"
        )
    return GramFactor(factor=f, blocks=blocks, isometries=isometries)


def compose_reduced(rf, phi_reduced, z):
    """Evaluate the reduced composition D_imag + T0* phi(z) T0.

    ``phi_reduced`` must be a series over the reduced dimension (built on
    ``rf.t_seq`` or a positive extension of it).  At z = 0 this
    reconstructs M_0 exactly; with empty T0 the function is the constant
    D_imag.
    """
    if rf.t_seq is None:
        return rf.d_imag.copy()
    if phi_reduced.seq.block_dim != rf.t0.shape[0]:
        raise DimensionError(
            f"reduced series dimension {phi_reduced.seq.block_dim} does not match "
            f"factor rank {rf.t0.shape[0]}"
        )
    return rf.d_imag + rf.t0.conj().T @ eval_series(phi_reduced, z) @ rf.t0
