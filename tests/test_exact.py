"""The exact positive-definiteness oracle of ``exact.py`` on matrices whose
verdict is known: the identity, a diagonal one negative eigenvalue below
rounding level, a singular integer Gram matrix with and without a shift of
2^-50, and random Hermitian matrices whose least eigenvalue is far from 0,
where LAPACK's verdict cannot be wrong."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact import is_positive_definite


def test_identity_is_positive_definite():
    assert is_positive_definite(np.eye(5))
    assert not is_positive_definite(np.eye(5), -1)


def test_a_negative_eigenvalue_below_rounding_level_is_seen():
    assert not is_positive_definite(np.diag([1.0, -(2.0**-60)]))
    assert is_positive_definite(np.diag([1.0, -(2.0**-60)]), 2.0**-59)


def test_a_singular_gram_matrix_is_not_positive_definite():
    # V V* of integer V with three rows and two columns: exactly rank 2,
    # complex, and positive definite after a shift of 2^-50
    v = np.array([[1, 2 + 1j], [3j, -1], [2, 1 - 2j]])
    gram = v @ v.conj().T
    assert not is_positive_definite(gram)
    assert is_positive_definite(gram, 2.0**-50)
    assert is_positive_definite(gram, Fraction(1, 3))


def test_a_matrix_that_is_not_hermitian_is_refused():
    with pytest.raises(ValueError, match="Hermitian"):
        is_positive_definite(np.array([[1.0, 1j], [1j, 1.0]]))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
def test_the_oracle_agrees_with_eigvalsh_away_from_zero(m, seed, offset):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    a = (g + g.conj().T) / 2
    eigs = np.linalg.eigvalsh(a)
    a = a - (eigs[0] + offset) * np.eye(m)
    a = (a + a.conj().T) / 2
    least = np.linalg.eigvalsh(a)[0]
    if abs(least) > 1e-6:
        assert is_positive_definite(a) == (least > 0)
