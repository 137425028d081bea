"""Property tests for the batched evaluation kernel and the single-assembly
positivity profile, over block dimensions 1-3, orders 0-12 and 1-40 points."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from herglotz import (
    CoefficientSequence,
    HerglotzSeries,
    assemble,
    eval_series,
    positivity_profile,
    psd_report,
    series_tail_bound,
)
from herglotz.series import _gram_matrix

RADIUS = 0.9
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def series(draw):
    d = draw(st.integers(1, 3))
    order = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.standard_normal((order + 1, d, d)) + 1j * rng.standard_normal((order + 1, d, d))
    # a heavier constant term makes a mix of PSD and non-PSD levels
    coeffs[0] += draw(st.floats(0.0, 8.0)) * np.eye(d)
    return HerglotzSeries(CoefficientSequence(coeffs), declared_radius=RADIUS)


# radii stay below the declared radius so rounding in r e^{i theta} cannot
# push a point outside it
points = st.lists(
    st.tuples(st.floats(0.0, 0.89), st.floats(0.0, 2 * np.pi)), min_size=1, max_size=40
).map(lambda polar: np.array([r * np.exp(1j * t) for r, t in polar]))


def scale(phi):
    return float(np.abs(phi.seq.coefficients).sum())


@PROPERTY
@given(series(), points)
def test_batched_evaluation_matches_pointwise(phi, pts):
    batched = eval_series(phi, pts)
    stacked = np.stack([eval_series(phi, z) for z in pts])
    assert batched.shape == stacked.shape
    np.testing.assert_allclose(batched, stacked, rtol=0, atol=1e-13 * scale(phi))
    bounds = series_tail_bound(phi, pts)
    np.testing.assert_allclose(bounds, [series_tail_bound(phi, z) for z in pts], rtol=1e-14)


@PROPERTY
@given(series(), st.floats(0.0, 0.89), st.floats(0.0, 2 * np.pi))
def test_scalar_evaluation_is_the_power_sum(phi, r, theta):
    z = complex(r * np.exp(1j * theta))
    coeffs = phi.seq.coefficients
    powers = z ** np.arange(1, phi.seq.order + 1)
    expected = coeffs[0] + 2 * np.tensordot(powers, coeffs[1:], axes=(0, 0))
    assert np.array_equal(eval_series(phi, z), expected)


@PROPERTY
@given(series(), points)
def test_dense_gram_blocks_are_the_pointwise_kernel(phi, pts):
    d = phi.seq.block_dim
    m = len(pts)
    dense = _gram_matrix(phi, pts)
    values = [eval_series(phi, z) for z in pts]
    expected = np.block(
        [
            [(values[l] + values[j].conj().T) / (1 - pts[l] * np.conj(pts[j])) for j in range(m)]
            for l in range(m)
        ]
    )
    assert dense.shape == (m * d, m * d)
    np.testing.assert_allclose(dense, expected, rtol=0, atol=1e-13 * scale(phi) / (1 - 0.89**2))


@PROPERTY
@given(series(), points, st.integers(0, 2**32 - 1))
def test_compressed_gram_is_the_dense_gram_paired(phi, pts, seed):
    d = phi.seq.block_dim
    m = len(pts)
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    dense = _gram_matrix(phi, pts)
    compressed = _gram_matrix(phi, pts, vecs)
    blocks = dense.reshape(m, d, m, d)
    expected = np.array(
        [[vecs[l].conj() @ blocks[l, :, j, :] @ vecs[j] for j in range(m)] for l in range(m)]
    )
    size = scale(phi) * float(np.abs(vecs).max()) ** 2 / (1 - 0.89**2)
    np.testing.assert_allclose(compressed, expected, rtol=0, atol=1e-13 * size)


@PROPERTY
@given(series(), st.sampled_from([1e-9, 1e-6, 1e-2]))
def test_profile_equals_per_level_assembly(phi, tol):
    seq = phi.seq
    reference = [psd_report(assemble(seq.truncated(n)).dense, tol) for n in range(len(seq))]
    assert positivity_profile(seq, tol) == reference
