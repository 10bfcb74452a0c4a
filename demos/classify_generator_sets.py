"""Classifying sets of Lie algebra generators.

classify_algebra looks at the span of its input together with the
rotations, decomposes it into isotypic components and extracts sigma from
the mixing part.  Good inputs come back with a case label; contaminated
ones come back as NotKinematical with a reason string.  A (T, m, n+1, n+1)
array of T sets is classified in one call, with each set's own answer.
"""

import numpy as np

from kinematica.classify import (
    case_label,
    classify_algebra,
    rotation_generators,
)
from kinematica.groups import p_generator

np.set_printoptions(precision=4, suppress=True)
rng = np.random.default_rng(7)

n = 3

sets = []
for sigma in (1.0, 0.25, 0.0, -1.0, np.inf):
    gens = rotation_generators(n)
    # two boosts in random directions, with arbitrary scaling thrown in
    for _ in range(2):
        gens.append(rng.uniform(0.1, 50.0)
                    * p_generator(rng.standard_normal(n), sigma))
    sets.append(gens)
    result = classify_algebra(gens)
    print(f"input sigma {sigma!r:14} -> {result.outcome},",
          f"case {case_label(result).value},",
          f"recovered sigma {result.sigma.value!r}")

# The same five sets as one (5, m, n+1, n+1) stack: one call, a list of
# five results, each bit for bit the answer of its set alone.
stacked = classify_algebra(np.array(sets))
print()
print("one stacked call:", [case_label(r).value for r in stacked])
for gens, result in zip(sets, stacked):
    alone = classify_algebra(gens)
    assert (result.sigma, result.diagnostics) == (alone.sigma, alone.diagnostics)
print("each equals its single-set call:", [r.sigma.value for r in stacked])

print()
print("rotations alone:",
      classify_algebra(rotation_generators(n)).outcome)

# a single boost generator is enough, the rotations are adjoined for free
lone = classify_algebra([p_generator(np.array([1.0, 2.0, -0.5]), 0.5)])
print("single boost generator:", lone.outcome, case_label(lone).value,
      lone.sigma.value)

print()
print("and now the failure modes:")

bad = rotation_generators(n) + [np.eye(n + 1)]
print(" identity added:    ", classify_algebra(bad).reason)

stretch = np.zeros((n + 1, n + 1))
stretch[0, 0], stretch[1, 1] = 1.0, -1.0
print(" stretch added:     ", classify_algebra(rotation_generators(n)
                                               + [stretch]).reason)

mixed = rotation_generators(n) + [
    p_generator(np.array([1.0, 0.0, 0.0]), 1.0),
    p_generator(np.array([0.0, 1.0, 0.0]), 2.0),
]
print(" two sigmas at once:", classify_algebra(mixed).reason)

skew_pair = np.zeros((n + 1, n + 1))
skew_pair[0, n] = 1.0   # column along e1 ...
skew_pair[n, 1] = 1.0   # ... but row along e2: not a boost of any sigma
print(" non-collinear pair:", classify_algebra([skew_pair]).reason)

result = classify_algebra(rotation_generators(n)
                          + [p_generator(np.array([0.3, -1.0, 0.2]), 1.0)])
print()
print("diagnostics of a clean run:", result.diagnostics)
