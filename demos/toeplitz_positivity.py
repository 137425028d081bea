#!/usr/bin/env python3
# Assembling coefficient data into block Toeplitz form and certifying
# positivity level by level.

import numpy as np

from herglotz import (
    CoefficientSequence,
    assemble,
    cross_block_bound_check,
    positivity_profile,
    random_realization,
    realization_coefficients,
    reversal_conjugate,
)

# A scalar coefficient list M_0..M_2. The assembled matrix puts M_{j-i}
# above the diagonal, adjoints below, and Re M_0 on it.
seq = CoefficientSequence.from_scalars([1.0, 0.5, 0.25])
bt = assemble(seq)
print("assembled matrix for (1, 1/2, 1/4):")
print(np.real(bt.dense))


def print_profile(seq):
    # a decomposed level has its min eigenvalue; any other level has the
    # bracket that decides its verdicts.  Levels up to s are read by
    # interlacing from the spectrum of T_s, and each level past s has
    # [-tol, lambda_min(T_s) + margin].  s is the level that a Cholesky
    # factorisation of the top level marks where it proves the data PSD,
    # and otherwise the top level
    for n, rep in enumerate(positivity_profile(seq, tol=1e-9)):
        if rep.lower == rep.upper:
            value = f"{rep.lower:+.6f}"
        else:
            value = f"in [{rep.lower:+.6f}, {rep.upper:+.6f}]"
        print(f"  level {n}: min eigenvalue {value}  psd={rep.is_psd}")


# Positivity, truncation level by truncation level.
print("\npositivity profile:")
print_profile(seq)

# Infeasible data fails at the level where the Toeplitz matrix loses
# positivity; nothing later can recover.
bad = CoefficientSequence.from_scalars([1.0, 2.0])
print("\nprofile for the infeasible pair (1, 2):")
print_profile(bad)

# Longer data: one Cholesky factorisation proves every level PSD but marks
# no level that is not strictly positive, so the spectrum of the top level
# decides: levels 0 and N are decomposed, and by Cauchy interlacing the
# levels between them are bracketed, bisecting only where a bracket leaves
# a verdict open.
print("\nprofile for (1, 1/2, 1/4, ..., 1/2^8):")
print_profile(CoefficientSequence.from_scalars(0.5 ** np.arange(9)))

# Block reversal is a permutation conjugation: the spectrum is untouched.
rlz = random_realization(0, 2, 5)
seq2 = realization_coefficients(rlz, 4)
bt2 = assemble(seq2)
rev = reversal_conjugate(bt2)
before = np.linalg.eigvalsh(bt2.dense)
after = np.linalg.eigvalsh(rev.dense)
print(f"\nreversal eigenvalue drift: {np.max(np.abs(before - after)):.2e}")

# Off-diagonal blocks of a PSD block matrix obey a Cauchy-Schwarz bound;
# the slack is nonnegative for every pair of probe vectors.
rng = np.random.default_rng(1)
samples = []
for _ in range(4):
    l, j = rng.integers(0, bt2.num_blocks, 2)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    samples.append(((int(l), int(j)), v, w))
slacks = cross_block_bound_check(bt2, samples)
print("cross-block slacks:", " ".join(f"{s:.4f}" for s in slacks))
