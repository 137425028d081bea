#!/usr/bin/env python3
# One-step extension of positive coefficient data: the admissibility ball,
# its center, and the central solution of the truncated interpolation
# problem.

import numpy as np

from herglotz import (
    CoefficientSequence,
    ball_membership,
    central_step,
    eval_series,
    extend,
    parametrized_step,
    solve_cf,
)

# For the scalar pair (1, 1/2) the admissible next coefficient forms a
# disk; its center is 1/(4(1+eps)) and shrinking eps recovers 1/4.
seq = CoefficientSequence.from_scalars([1.0, 0.5])
print("center of the next-coefficient ball for (1, 1/2):")
for eps in [1e-1, 1e-3, 1e-6, 1e-8]:
    _, m2 = central_step(seq, eps)
    print(f"  eps={eps:.0e}  M_2 = {m2[0, 0].real:.10f}")

# Ball geometry at eps = 1: membership margin shrinks towards the boundary.
step, center = central_step(CoefficientSequence.from_scalars([1.0, 1.0]), eps=1.0)
radius = np.sqrt(step.left_bound[0, 0].real / step.alpha[0, 0].real)
print(f"\nball center {center[0, 0].real:.4f}, radius {radius:.4f}")
for t in [0.0, 0.5, 0.99, 1.5]:
    x = center + t * radius
    inside, margin = ball_membership(step, x)
    print(f"  offset {t:4.2f} radii: inside={inside!s:5}  margin {margin:+.4f}")

# The same points come out of the contraction parametrization.
for g in [0.0, 0.5, 1.0]:
    x = parametrized_step(step, np.array([[g]]))
    print(f"  contraction {g:3.1f} -> X = {x[0, 0].real:.4f}")

# The central extension comes from the data's minimal factor, with no
# shift, to any horizon; for geometric input it continues the geometric law.
ext = extend(seq, 6, eps=1e-8)
print("\ncentral extension of (1, 1/2):", np.round(np.real(ext.coefficients[:, 0, 0]), 6))

# Singular data such as (1, 1) are determinate: their only extension is the
# constant sequence, which extend takes exactly from the data's minimal
# factor, with no shift to bias it.
ext = extend(CoefficientSequence.from_scalars([1.0, 1.0]), 6)
print("exact extension of (1, 1):", np.real(ext.coefficients[:, 0, 0]))

# solve_cf wraps the interpolation problem: feasibility check, central
# extension to a horizon, evaluation-ready series.
phi = solve_cf(seq, horizon=64)
z = 0.5
print(f"\nPhi(1/2) = {eval_series(phi, z)[0, 0].real:.8f}  (closed form 5/3 = {5 / 3:.8f})")
