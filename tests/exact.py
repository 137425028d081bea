"""Exact positive-definiteness decisions for tests, in integer arithmetic.

Every float is a dyadic rational, so a Hermitian complex matrix A and a
rational shift c become Gaussian integers once A + c I is multiplied by one
common denominator.  Fraction-free (Bareiss) elimination then yields the
leading principal minors themselves as its pivots, real for a Hermitian
matrix, and A + c I is positive definite exactly when every one of them is
positive (Sylvester).  Nothing is rounded, so a certificate checked here is
checked against the exact spectrum, not against another floating-point
computation.  Standard library and numpy only.
"""

import math
from fractions import Fraction

import numpy as np


def _leading_minors_positive(re, im):
    # Bareiss elimination of the Hermitian Gaussian-integer matrix re + i im
    # (lists of lists, spent): after step k the entry (k + 1, k + 1) is the
    # leading principal minor of order k + 2, and every division by the
    # previous (real) pivot is exact.  The trailing block stays Hermitian,
    # so only its upper triangle is updated, and entry (i, k) is read as the
    # conjugate of (k, i)
    previous = 1
    size = len(re)
    for k in range(size):
        pivot = re[k][k]
        if pivot <= 0:
            return False
        top_re, top_im = re[k], im[k]
        for i in range(k + 1, size):
            row_re, row_im = re[i], im[i]
            lead_re, lead_im = top_re[i], -top_im[i]
            for j in range(i, size):
                t_re, t_im = top_re[j], top_im[j]
                row_re[j] = (row_re[j] * pivot - lead_re * t_re + lead_im * t_im) // previous
                row_im[j] = (row_im[j] * pivot - lead_re * t_im - lead_im * t_re) // previous
        previous = pivot
    return True


def is_positive_definite(a, shift=0):
    """Whether A + shift I is exactly positive definite.

    ``a`` is an exactly Hermitian complex (or real) square array of finite
    floats; ``shift`` is a float, an int or a ``Fraction``, taken exactly.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not (a == a.conj().T).all():
        raise ValueError("expected an exactly Hermitian square matrix")
    if not np.isfinite(a).all():
        raise ValueError("expected finite entries")
    parts = [[[float(x).as_integer_ratio() for x in row] for row in part.tolist()]
             for part in (a.real, a.imag)]
    shift = Fraction(shift)
    common = math.lcm(shift.denominator, *(q for part in parts for row in part for _, q in row))
    re, im = ([[p * (common // q) for p, q in row] for row in part] for part in parts)
    for i in range(a.shape[0]):
        re[i][i] += shift.numerator * (common // shift.denominator)
    return _leading_minors_positive(re, im)
